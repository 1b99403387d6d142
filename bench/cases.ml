(* The nine Table II benchmark cases, scaled to CPU budgets.

   Widths are chosen so that each case keeps its paper character relative
   to the scaled engine thresholds (k_P = 20, k_p = k_g = 14):
   - log2 and sin have PO supports below k_P: solved one-shot by the P
     phase (as in the paper);
   - multiplier and square exceed k_P, so internal G + repeated L phases
     must do the proving (engine still finishes alone);
   - sqrt and hyp are deep / wide: the engine reduces only part of the
     miter and the SAT fallback finishes (paper: 0.7% and 40.2%);
   - voter exceeds the thresholds and SAT pays a heavy tail, while the
     BDD-portfolio engine solves it instantly (the Conformal crossover);
   - ac97_ctrl is wide and shallow with mostly-small PO supports: P proves
     most outputs, a small SAT tail remains;
   - vga_lcd has mixed supports just above the thresholds: little
     reduction, but cheap, so the combined flow is roughly neutral. *)

type case = {
  name : string;
  build : unit -> Aig.Network.t;
  doubles : int;  (** applications of [double] at bench scale 1 *)
}

(* Gen.Double-enlarged stress cases.  Not part of the default table2 run
   (select them explicitly, e.g. BENCH_CASES=sqrt,sqrt_x4) so CI smoke
   stays fast; sqrt_x4 is the 4x-size arithmetic case the SAT
   preprocessing payoff is measured on. *)
let enlarged =
  [ { name = "sqrt_x4"; build = (fun () -> Gen.Arith.sqrt ~bits:24); doubles = 2 } ]

let table2 =
  [
    { name = "hyp"; build = (fun () -> Gen.Arith.hypot ~bits:11); doubles = 0 };
    { name = "log2"; build = (fun () -> Gen.Arith.log2 ~bits:14 ~frac:4); doubles = 0 };
    { name = "multiplier"; build = (fun () -> Gen.Arith.multiplier ~bits:12); doubles = 0 };
    { name = "sqrt"; build = (fun () -> Gen.Arith.sqrt ~bits:24); doubles = 0 };
    { name = "square"; build = (fun () -> Gen.Arith.square ~bits:22); doubles = 0 };
    { name = "voter"; build = (fun () -> Gen.Control.voter ~n:41); doubles = 0 };
    { name = "sin"; build = (fun () -> Gen.Arith.sin ~bits:12 ~iters:10); doubles = 0 };
    { name = "ac97_ctrl"; build = (fun () -> Gen.Control.regfile ~regs:4 ~width:4); doubles = 3 };
    { name = "vga_lcd"; build = (fun () -> Gen.Control.display ~hbits:12 ~vbits:11); doubles = 1 };
    (* Datapath cases: a ripple-carry adder, a multi-operand adder tree,
       restoring division and a Wallace-tree multiplier (carry-save
       columns). *)
    { name = "adder"; build = (fun () -> Gen.Arith.adder ~bits:64); doubles = 0 };
    { name = "addtree"; build = (fun () -> Gen.Arith.addtree ~operands:4 ~bits:24); doubles = 0 };
    { name = "divider"; build = (fun () -> Gen.Divider.divide ~bits:10); doubles = 0 };
    { name = "wallace"; build = (fun () -> Gen.Wallace.multiplier ~bits:8); doubles = 0 };
  ]

let all = table2 @ enlarged

let cache : (string, Aig.Network.t) Hashtbl.t = Hashtbl.create 16

(* The case's miter: its original network against the resyn2-optimized
   copy, built once per process. *)
let prepare case =
  match Hashtbl.find_opt cache case.name with
  | Some m -> m
  | None ->
      let original = Gen.Double.times case.doubles (case.build ()) in
      let m = Aig.Miter.build original (Opt.Resyn.resyn2 original) in
      Hashtbl.replace cache case.name m;
      m

let find name = List.find (fun c -> c.name = name) all
