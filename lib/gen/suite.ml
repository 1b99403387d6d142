type case = {
  name : string;
  original : Aig.Network.t;
  optimized : Aig.Network.t;
  miter : Aig.Network.t;
}

let names =
  [
    "hyp";
    "log2";
    "multiplier";
    "sqrt";
    "square";
    "voter";
    "sin";
    "ac97_ctrl";
    "vga_lcd";
  ]

(* Base circuit and number of doublings per unit of scale.  Sizes are
   chosen so that the full Table II bench finishes in CPU minutes while
   keeping each family's structural character (wide multipliers, deep
   roots, shallow control). *)
let base ?(scale = 1) name =
  let d k g = Double.times (k * scale) g in
  match name with
  | "hyp" -> d 1 (Arith.hypot ~bits:6)
  | "log2" -> d 1 (Arith.log2 ~bits:8 ~frac:3)
  | "multiplier" -> d 2 (Arith.multiplier ~bits:8)
  | "sqrt" -> d 1 (Arith.sqrt ~bits:16)
  | "square" -> d 2 (Arith.square ~bits:8)
  | "voter" -> d 2 (Control.voter ~n:31)
  | "sin" -> d 1 (Arith.sin ~bits:8 ~iters:8)
  | "ac97_ctrl" -> d 2 (Control.regfile ~regs:8 ~width:8)
  | "vga_lcd" -> d 2 (Control.display ~hbits:8 ~vbits:7)
  | _ -> invalid_arg ("Suite.build: unknown case " ^ name)

let build ?scale name =
  let original = base ?scale name in
  let optimized = Opt.Resyn.resyn2 original in
  let miter = Aig.Miter.build original optimized in
  { name; original; optimized; miter }

let all ?scale () = List.map (fun n -> build ?scale n) names
