type state = {
  mutable current : Aig.Network.t option;
  store : (string, Aig.Network.t) Hashtbl.t;
  pool : Par.Pool.t Lazy.t;
}

let create ?pool () =
  {
    current = None;
    store = Hashtbl.create 8;
    pool = (match pool with Some p -> lazy p | None -> lazy (Par.Pool.create ()));
  }

let help_text =
  String.concat "\n"
    [
      "read FILE            load an AIGER file as the current network";
      "write FILE           write the current network (.aig = binary)";
      "gen FAMILY [N]       generate: adder multiplier wallace square sqrt";
      "                     hypot log2 sin voter divider barrel alu regfile display";
      "strash               sweep dangling nodes";
      "balance rewrite refactor xorflip resyn2 light   optimisation passes";
      "double [N]           enlarge N times";
      "store NAME           save the current network";
      "load NAME            recall a stored network";
      "miter NAME           current := miter(current, NAME)";
      "cec [ENGINE]         check the current miter (default combined) with";
      "                     sim combined sat satdirect bdd portfolio";
      "                     portfolio.race partitioned shard[.N] (N workers)";
      "fraig                merge functionally equivalent internal nodes";
      "certify              combined check with certificate validation";
      "sim N                random simulation vectors";
      "stats                print statistics";
      "dot FILE             write Graphviz";
      "help                 this text";
    ]

let stats_line g = Format.asprintf "%a" Aig.Stats.pp (Aig.Stats.of_network g)

let with_current st f =
  match st.current with
  | None -> Error "no current network (use read or gen)"
  | Some g -> f g

let generate family size =
  let size d = match size with Some n -> n | None -> d in
  match family with
  | "adder" -> Ok (Gen.Arith.adder ~bits:(size 8))
  | "multiplier" -> Ok (Gen.Arith.multiplier ~bits:(size 8))
  | "wallace" -> Ok (Gen.Wallace.multiplier ~bits:(size 8))
  | "square" -> Ok (Gen.Arith.square ~bits:(size 8))
  | "sqrt" -> Ok (Gen.Arith.sqrt ~bits:(size 16))
  | "hypot" -> Ok (Gen.Arith.hypot ~bits:(size 8))
  | "log2" -> Ok (Gen.Arith.log2 ~bits:(size 8) ~frac:3)
  | "sin" -> Ok (Gen.Arith.sin ~bits:(size 8) ~iters:(size 8))
  | "voter" -> Ok (Gen.Control.voter ~n:(size 15))
  | "divider" -> Ok (Gen.Divider.divide ~bits:(size 8))
  | "barrel" -> Ok (Gen.Barrel.shifter ~bits:(size 8) ~rotate:false)
  | "alu" -> Ok (Gen.Alu.alu ~bits:(size 8))
  | "regfile" -> Ok (Gen.Control.regfile ~regs:(size 8) ~width:8)
  | "display" -> Ok (Gen.Control.display ~hbits:(size 8) ~vbits:(max 1 (size 8 - 1)))
  | _ -> Error ("unknown family " ^ family)

let run_cec ?cancel st g name =
  match Engines.of_string name with
  | Error e -> Error e
  | Ok engine ->
      Engines.run ?cancel ~pool:(Lazy.force st.pool) engine g
      |> Result.map (fun r -> r.Engines.summary)

(* Tokenize one command line ABC-style: words split on blanks; double or
   single quotes group a word, so filenames may contain blanks, [;] or
   [#]; a [#] starts a comment only at the start of the line or after a
   blank — [read foo#1.aig] names a file, [read x  # note] carries a
   comment. *)
let tokenize line =
  let n = String.length line in
  let words = ref [] in
  let buf = Buffer.create 16 in
  let in_word = ref false in
  let flush () =
    if !in_word then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf;
      in_word := false
    end
  in
  let err = ref None in
  let i = ref 0 in
  while !err = None && !i < n do
    (match line.[!i] with
    | ' ' | '\t' | '\r' -> flush ()
    | ('"' | '\'') as q -> (
        match String.index_from_opt line (!i + 1) q with
        | Some j ->
            Buffer.add_string buf (String.sub line (!i + 1) (j - !i - 1));
            in_word := true;
            i := j
        | None -> err := Some (Printf.sprintf "unterminated %c quote" q))
    | '#' when not !in_word -> i := n
    | c ->
        Buffer.add_char buf c;
        in_word := true);
    incr i
  done;
  match !err with
  | Some e -> Error e
  | None ->
      flush ();
      Ok (List.rev !words)

let exec ?cancel st line =
  match tokenize line with
  | Error e -> Error e
  | Ok words ->
  let set g out =
    st.current <- Some g;
    Ok out
  in
  let pass name f =
    with_current st (fun g ->
        let g' = f g in
        set g' (Printf.sprintf "%s: %s" name (stats_line g')))
  in
  try
    match words with
    | [] -> Ok ""
    | [ "help" ] -> Ok help_text
    | [ "read"; file ] ->
        let g = Aig.Aiger_io.read_file file in
        set g (stats_line g)
    | [ "write"; file ] ->
        with_current st (fun g ->
            Aig.Aiger_io.write_file file g;
            Ok ("written " ^ file))
    | "gen" :: family :: rest -> (
        let size =
          match rest with
          | [] -> Ok None
          | [ n ] -> (
              match int_of_string_opt n with
              | Some v when v > 0 -> Ok (Some v)
              | _ -> Error ("bad size " ^ n))
          | _ -> Error "usage: gen FAMILY [N]"
        in
        match size with
        | Error e -> Error e
        | Ok size -> (
            match generate family size with
            | Ok g -> set g (stats_line g)
            | Error e -> Error e))
    | [ "strash" ] -> pass "strash" (fun g -> (Aig.Reduce.sweep g).Aig.Reduce.network)
    | [ "balance" ] -> pass "balance" Opt.Balance.run
    | [ "rewrite" ] -> pass "rewrite" Opt.Rewrite.run
    | [ "refactor" ] -> pass "refactor" (fun g -> Opt.Refactor.run g)
    | [ "xorflip" ] -> pass "xorflip" Opt.Xorflip.run
    | [ "resyn2" ] -> pass "resyn2" Opt.Resyn.resyn2
    | [ "light" ] -> pass "light" Opt.Resyn.light
    | [ "double" ] -> pass "double" Gen.Double.double
    | [ "double"; n ] -> (
        match int_of_string_opt n with
        | Some k when k >= 0 -> pass "double" (Gen.Double.times k)
        | _ -> Error ("bad count " ^ n))
    | [ "store"; name ] ->
        with_current st (fun g ->
            Hashtbl.replace st.store name (Aig.Network.copy g);
            Ok ("stored " ^ name))
    | [ "load"; name ] -> (
        match Hashtbl.find_opt st.store name with
        | Some g -> set (Aig.Network.copy g) (stats_line g)
        | None -> Error ("no stored network " ^ name))
    | [ "miter"; name ] -> (
        match Hashtbl.find_opt st.store name with
        | None -> Error ("no stored network " ^ name)
        | Some other ->
            with_current st (fun g ->
                let m = Aig.Miter.build g other in
                set m ("miter: " ^ stats_line m)))
    | [ "cec" ] -> with_current st (fun g -> run_cec ?cancel st g "combined")
    | [ "cec"; engine ] -> with_current st (fun g -> run_cec ?cancel st g engine)
    | [ "certify" ] ->
        with_current st (fun g ->
            let pool = Lazy.force st.pool in
            let result, cert =
              Simsweep.Certificate.generate ~config:Simsweep.Config.scaled
                ?cancel ~pool g
            in
            let verdict = Engines.outcome_string result.Simsweep.Engine.outcome in
            if not cert.Simsweep.Certificate.claims_proved then
              Ok (verdict ^ " (no full certificate)")
            else begin
              match Simsweep.Certificate.validate g cert with
              | Ok _ ->
                  Ok
                    (Printf.sprintf "%s (certificate with %d steps validated)"
                       verdict
                       (List.length cert.Simsweep.Certificate.steps))
              | Error e -> Error ("certificate INVALID: " ^ e)
            end)
    | [ "sim"; n ] -> (
        match int_of_string_opt n with
        | Some k when k > 0 ->
            with_current st (fun g ->
                let rng = Sim.Rng.create ~seed:9L in
                let buf = Buffer.create 256 in
                for _ = 1 to k do
                  let cex =
                    Array.init (Aig.Network.num_pis g) (fun _ -> Sim.Rng.bool rng)
                  in
                  Array.iter (fun v -> Buffer.add_char buf (if v then '1' else '0')) cex;
                  Buffer.add_char buf ' ';
                  Array.iter
                    (fun l ->
                      Buffer.add_char buf
                        (if Sim.Cex.eval_lit g cex l then '1' else '0'))
                    (Aig.Network.pos g);
                  Buffer.add_char buf '\n'
                done;
                Ok (String.trim (Buffer.contents buf)))
        | _ -> Error ("bad count " ^ n))
    | [ "fraig" ] ->
        with_current st (fun g ->
            let pool = Lazy.force st.pool in
            let g', fstats = Sat.Sweep.fraig ?cancel ~pool g in
            set g'
              (Printf.sprintf "fraig: %s (%d merges)" (stats_line g')
                 fstats.Sat.Sweep.merged))
    | [ "stats" ] -> with_current st (fun g -> Ok (stats_line g))
    | [ "dot"; file ] ->
        with_current st (fun g ->
            Aig.Dot.write_file file g;
            Ok ("written " ^ file))
    | cmd :: _ -> Error ("unknown command " ^ cmd ^ " (try help)")
  with
  | Aig.Aiger_io.Parse_error e -> Error ("parse error: " ^ e)
  | Sys_error e -> Error e
  | Invalid_argument e -> Error e

(* Split a script into commands at newlines and at [;] — but not inside
   quotes (so [read "a;b.aig"] is one command) and not inside a comment
   (which runs to the end of its line). *)
let split_commands text =
  let cmds = ref [] in
  let buf = Buffer.create 64 in
  let flush () =
    cmds := Buffer.contents buf :: !cmds;
    Buffer.clear buf
  in
  let n = String.length text in
  let quote = ref None in
  let in_word = ref false in
  let in_comment = ref false in
  for i = 0 to n - 1 do
    let c = text.[i] in
    if !in_comment then begin
      if c = '\n' then begin
        in_comment := false;
        in_word := false;
        flush ()
      end
      else Buffer.add_char buf c
    end
    else
      match !quote with
      | Some q ->
          Buffer.add_char buf c;
          if c = q then quote := None
      | None -> (
          match c with
          | '\n' | ';' ->
              in_word := false;
              flush ()
          | ' ' | '\t' | '\r' ->
              in_word := false;
              Buffer.add_char buf c
          | ('"' | '\'') as q ->
              quote := Some q;
              in_word := true;
              Buffer.add_char buf c
          | '#' when not !in_word ->
              in_comment := true;
              Buffer.add_char buf c
          | c ->
              in_word := true;
              Buffer.add_char buf c)
  done;
  flush ();
  List.rev !cmds

let exec_script ?cancel st text =
  let buf = Buffer.create 256 in
  let rec go idx = function
    | [] -> Ok (Buffer.contents buf)
    | cmd :: rest -> (
        let blank = String.trim cmd = "" in
        let idx = if blank then idx else idx + 1 in
        match exec ?cancel st cmd with
        | Ok "" -> go idx rest
        | Ok out ->
            Buffer.add_string buf out;
            Buffer.add_char buf '\n';
            go idx rest
        | Error e ->
            Error (Printf.sprintf "command %d (%s): %s" idx (String.trim cmd) e))
  in
  go 0 (split_commands text)
