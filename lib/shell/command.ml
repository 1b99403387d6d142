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
      "                     partitioned shard[.N] (N workers)";
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

(* The shell's one scanner, ABC-style.  A script splits into commands at
   newlines and at [;], and a command into words at blanks.  Double or
   single quotes group a word, so filenames may contain blanks, [;] or
   [#].  A [#] starts a comment, which runs to the end of its line, only
   at the start of a word: [read foo#1.aig] names a file, [read x  # note]
   carries a comment.  Each command comes with its text, comment
   included, and its words or its scan error. *)
let scan text =
  let n = String.length text in
  let cmds = ref [] and words = ref [] and err = ref None in
  let word = Buffer.create 16 in
  let in_word = ref false and start = ref 0 in
  let end_word () =
    if !in_word then begin
      words := Buffer.contents word :: !words;
      Buffer.clear word;
      in_word := false
    end
  in
  let end_command stop =
    end_word ();
    let scanned =
      match !err with Some e -> Error e | None -> Ok (List.rev !words)
    in
    cmds := (String.sub text !start (stop - !start), scanned) :: !cmds;
    words := [];
    start := stop + 1
  in
  let i = ref 0 in
  while !i < n do
    (match text.[!i] with
    | '\n' | ';' -> end_command !i
    | ' ' | '\t' | '\r' -> end_word ()
    | ('"' | '\'') as q -> (
        match String.index_from_opt text (!i + 1) q with
        | Some j ->
            Buffer.add_string word (String.sub text (!i + 1) (j - !i - 1));
            in_word := true;
            i := j
        | None ->
            err := Some (Printf.sprintf "unterminated %c quote" q);
            i := n)
    | '#' when not !in_word -> (
        match String.index_from_opt text !i '\n' with
        | Some j -> i := j - 1
        | None -> i := n)
    | c ->
        Buffer.add_char word c;
        in_word := true);
    incr i
  done;
  end_command n;
  List.rev !cmds

let exec_words ?cancel st words =
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
            let outcome, check =
              Simsweep.Certificate.certify ?cancel ~pool:(Lazy.force st.pool) g
            in
            let verdict = Engines.outcome_string outcome in
            match check with
            | Simsweep.Certificate.Validated steps ->
                Ok
                  (Printf.sprintf "%s (certificate with %d steps validated)"
                     verdict steps)
            | Simsweep.Certificate.Incomplete ->
                Ok (verdict ^ " (no full certificate)")
            | Simsweep.Certificate.Invalid e -> Error ("certificate INVALID: " ^ e))
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

(* Run the commands of [text] in order, stopping at the first error.
   Returns their non-empty outputs, or the failing command's 1-based index
   (blank commands are not counted), its text and its error. *)
let run_commands ?cancel st text =
  let rec go idx outs = function
    | [] -> Ok (List.rev outs)
    | (cmd, words) :: rest -> (
        let idx = if String.trim cmd = "" then idx else idx + 1 in
        match Result.bind words (exec_words ?cancel st) with
        | Ok "" -> go idx outs rest
        | Ok out -> go idx (out :: outs) rest
        | Error e -> Error (idx, cmd, e))
  in
  go 0 [] (scan text)

let exec ?cancel st line =
  match run_commands ?cancel st line with
  | Ok outs -> Ok (String.concat "\n" outs)
  | Error (_, _, e) -> Error e

let exec_script ?cancel st text =
  match run_commands ?cancel st text with
  | Ok outs -> Ok (String.concat "" (List.map (fun out -> out ^ "\n") outs))
  | Error (idx, cmd, e) ->
      Error (Printf.sprintf "command %d (%s): %s" idx (String.trim cmd) e)
