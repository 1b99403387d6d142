(* Bench harness: regenerates the paper's evaluation (Section IV) on the
   scaled benchmark suite — Table II with Fig. 6's phase breakdown, Fig. 7,
   and the ablations of the paper's own heuristics (Table I, §III-B3,
   §III-C1) — and gates a fresh Table II record against the committed one.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- table2     # one experiment
     dune exec bench/main.exe -- fig7 ablation-passes

   Absolute times are CPU-scale; the paper's testbed was an RTX A6000, so
   EXPERIMENTS.md compares shapes (who wins, where the engine stops on its
   own) rather than raw numbers. *)

let pool = lazy (Par.Pool.create ())

let pr fmt = Printf.printf fmt

let heading title = pr "\n=== %s ===\n%!" title

(* ---------------------------------------------------------------- Table II *)

(* The one bench record, committed to the repo; the check-summary gate
   compares a fresh run against it. *)
let summary_file = "BENCH_summary.json"

let schema = "bench-summary-v4"

(* Every key of a [schema] case row: the Table II columns plus the Fig. 6
   phase seconds of the same engine run. *)
let row_keys =
  [
    "name"; "pis"; "pos"; "ands"; "outcome"; "sat_s"; "portfolio_s";
    "portfolio_winner"; "gpu_s"; "reduction_percent"; "sat_fallback_s";
    "total_s"; "speedup_vs_sat"; "speedup_vs_portfolio"; "p_s"; "g_s"; "l_s";
  ]

(* BENCH_CASES=log2,sin restricts table2 to a subset, and check-summary
   expects exactly that many rows — the CI smoke job uses this to exercise
   the harness and the gate in minutes.  An unknown name stops the run
   before any work. *)
let selected_cases () =
  match Sys.getenv_opt "BENCH_CASES" with
  | None | Some "" -> Cases.table2
  | Some spec ->
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (( <> ) "")
      |> List.map (fun name ->
             match List.find_opt (fun c -> c.Cases.name = name) Cases.all with
             | Some c -> c
             | None ->
                 Printf.eprintf "BENCH_CASES: unknown case %S (valid: %s)\n"
                   name
                   (String.concat ", " (List.map (fun c -> c.Cases.name) Cases.all));
                 exit 2)

(* Portfolio winner name ("none" when the portfolio is undecided). *)
let winner_name (r : Simsweep.Portfolio.result) =
  match r.Simsweep.Portfolio.winner with
  | Some e -> Simsweep.Portfolio.engine_name e
  | None -> "none"

let table2 () =
  let cases = selected_cases () in
  heading
    "Table II - runtime comparison (ABC-analog = SAT sweeping, Cfm-analog = portfolio)";
  let pool = Lazy.force pool in
  pr "%-11s %7s %6s %8s | %8s %8s %6s | %8s %7s %8s %9s | %8s %8s\n" "case"
    "PIs" "POs" "ANDs" "SAT(s)" "Pf(s)" "Pf win" "GPU(s)" "Red%" "SATf(s)"
    "Total(s)" "vs SAT" "vs Pf";
  let calibration = Harness.calibrate () in
  let sp_sat = ref [] and sp_pf = ref [] and rows = ref [] and phases = ref [] in
  (* Per-stage progress on stderr: a full table2 run takes minutes on small
     machines and each case's row only prints once all its measurements
     finish. *)
  let progress case stage f =
    Printf.eprintf "[bench] %-11s %s...\n%!" case.Cases.name stage;
    (* Compact before every timed stage: sub-100ms cases otherwise measure
       the major-heap state left behind by whichever stage ran before them,
       not their own work. *)
    Gc.compact ();
    let r, t = Harness.time f in
    Printf.eprintf "[bench] %-11s %s done (%.3fs)\n%!" case.Cases.name stage t;
    r
  in
  List.iter
    (fun case ->
      let m = progress case "prepare" (fun () -> Cases.prepare case) in
      let _, sat_time =
        progress case "sat-baseline" (fun () -> Harness.run_sat_baseline ~pool m)
      in
      let pf, pf_time =
        progress case "portfolio" (fun () -> Harness.run_portfolio ~pool m)
      in
      let ours = progress case "ours" (fun () -> Harness.run_ours ~pool m) in
      let su_sat = sat_time /. ours.Harness.total in
      let su_pf = pf_time /. ours.Harness.total in
      sp_sat := su_sat :: !sp_sat;
      sp_pf := su_pf :: !sp_pf;
      let st = ours.Harness.engine_stats in
      phases := (case.Cases.name, st) :: !phases;
      (let open Simsweep.Telemetry in
       rows :=
         Obj
           [
             ("name", String case.Cases.name);
             ("pis", Int (Aig.Network.num_pis m));
             ("pos", Int (Aig.Network.num_pos m));
             ("ands", Int (Aig.Network.num_ands m));
             ("outcome", String (outcome_string ours.Harness.outcome));
             ("sat_s", Float sat_time);
             ("portfolio_s", Float pf_time);
             ("portfolio_winner", String (winner_name pf));
             ("gpu_s", Float ours.Harness.gpu_time);
             ("reduction_percent", Float ours.Harness.reduced_percent);
             ( "sat_fallback_s",
               match ours.Harness.sat_time with None -> Null | Some t -> Float t );
             ("total_s", Float ours.Harness.total);
             ("speedup_vs_sat", Float su_sat);
             ("speedup_vs_portfolio", Float su_pf);
             ("p_s", Float st.Simsweep.Stats.time_p);
             ("g_s", Float st.Simsweep.Stats.time_g);
             ("l_s", Float st.Simsweep.Stats.time_l);
           ]
         :: !rows);
      pr
        "%-11s %7d %6d %8d | %8.3f %8.3f %6s | %8.3f %7.1f %8s %9.3f | %7.2fx %7.2fx\n%!"
        case.Cases.name (Aig.Network.num_pis m) (Aig.Network.num_pos m)
        (Aig.Network.num_ands m) sat_time pf_time (winner_name pf)
        ours.Harness.gpu_time ours.Harness.reduced_percent
        (match ours.Harness.sat_time with
        | None -> "-"
        | Some t -> Printf.sprintf "%.3f" t)
        ours.Harness.total su_sat su_pf)
    cases;
  pr "%-11s %88s | %7.2fx %7.2fx\n" "geomean" "" (Harness.geomean !sp_sat)
    (Harness.geomean !sp_pf);
  heading "Figure 6 - runtime breakdown of the engine phases (P / G / L %)";
  pr "%-11s %8s %8s %8s   %s\n" "case" "P%" "G%" "L%" "(bar)";
  List.iter
    (fun (name, st) ->
      let fp, fg, fl = Simsweep.Stats.breakdown st in
      let bar =
        let n f = int_of_float (20. *. f) in
        String.make (n fp) 'P' ^ String.make (n fg) 'G' ^ String.make (n fl) 'L'
      in
      pr "%-11s %8.1f %8.1f %8.1f   %s\n%!" name (100. *. fp) (100. *. fg)
        (100. *. fl) bar)
    (List.rev !phases);
  let open Simsweep.Telemetry in
  write_file summary_file
    (Obj
       [
         ("schema", String schema);
         ("experiment", String "table2");
         ("domains", Int (Par.Pool.num_workers pool));
         ("calibration_s", Float calibration);
         ("cases", List (List.rev !rows));
         ("geomean_speedup_vs_sat", Float (Harness.geomean !sp_sat));
         ("geomean_speedup_vs_portfolio", Float (Harness.geomean !sp_pf));
       ]);
  pr "wrote %s\n%!" summary_file

(* ------------------------------------------------------------- perf gate *)

(* Largest tolerated geomean of fresh/baseline normalized totals. *)
let gate = 1.10

(* check-summary: compare the BENCH_summary.json just regenerated by
   [table2] against a baseline (the checked-in record; override with
   BENCH_BASELINE).  Per-case totals are normalized by each run's
   calibration kernel, so the gate compares work rather than machines; a
   geomean above [gate] exits 1.  A file the gate cannot read in full —
   no calibration, a row missing a key, a case without a baseline row —
   exits 2, naming the file. *)
let check_summary () =
  heading "perf gate - fresh BENCH_summary.json vs baseline";
  let open Simsweep.Telemetry in
  let fail file fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "check-summary: %s: %s\n" file msg;
        exit 2)
      fmt
  in
  let read file =
    match In_channel.with_open_bin file In_channel.input_all |> parse with
    | Ok j -> j
    | Error e -> fail file "cannot parse: %s" e
    | exception Sys_error e -> fail file "cannot read: %s" e
  in
  (* Default baseline: the git-committed copy.  [table2] has just
     overwritten the working-tree file, so falling back to [summary_file]
     would compare the fresh run against itself and trivially pass. *)
  let baseline_from_git () =
    let tmp = Filename.temp_file "bench-baseline" ".json" in
    at_exit (fun () -> try Sys.remove tmp with Sys_error _ -> ());
    let cmd =
      Printf.sprintf "git show HEAD:%s > %s 2>/dev/null"
        (Filename.quote summary_file) (Filename.quote tmp)
    in
    if Sys.command cmd = 0 then tmp
    else begin
      Printf.eprintf
        "check-summary: BENCH_BASELINE is unset and `git show HEAD:%s` \
         failed;\nrefusing to use the freshly written %s as its own \
         baseline.\nSet BENCH_BASELINE to a copy of the committed summary.\n"
        summary_file summary_file;
      exit 2
    end
  in
  let baseline_file =
    match Sys.getenv_opt "BENCH_BASELINE" with
    | Some f when f <> summary_file -> f
    | Some _ ->
        Printf.eprintf
          "check-summary: BENCH_BASELINE points at %s itself; the gate \
           would trivially pass.\n"
          summary_file;
        exit 2
    | None -> baseline_from_git ()
  in
  let fresh = read summary_file and baseline = read baseline_file in
  let calib file j =
    match float_member "calibration_s" j with
    | Some c when c > 0. -> c
    | _ -> fail file "calibration_s is missing or not positive"
  in
  let cases file j =
    match list_member "cases" j with
    | Some l -> l
    | None -> fail file "no cases list"
  in
  let name_of row = Option.value ~default:"" (string_member "name" row) in
  let seconds file row key =
    match float_member key row with
    | Some t when t > 0. -> t
    | _ -> fail file "case %S has no positive %s" (name_of row) key
  in
  if string_member "schema" fresh <> Some schema then
    fail summary_file "schema is not %s" schema;
  let fresh_rows = cases summary_file fresh in
  let expected = List.length (selected_cases ()) in
  if fresh_rows = [] || List.length fresh_rows <> expected then
    fail summary_file "%d cases, expected %d" (List.length fresh_rows) expected;
  List.iter
    (fun row ->
      match List.find_opt (fun k -> member k row = None) row_keys with
      | Some k -> fail summary_file "case %S lacks %s" (name_of row) k
      | None -> ())
    fresh_rows;
  let base_rows = cases baseline_file baseline in
  let fc = calib summary_file fresh and bc = calib baseline_file baseline in
  let ratios = ref [] and sat_ratios = ref [] and floored = ref [] in
  List.iter
    (fun row ->
      let name = name_of row in
      let base_row =
        match List.find_opt (fun b -> name_of b = name) base_rows with
        | Some b -> b
        | None -> fail baseline_file "no row for case %S" name
      in
      let normalized key =
        ( seconds summary_file row key /. fc,
          seconds baseline_file base_row key /. bc )
      in
      let fn, bn = normalized "total_s" in
      (* Noise floor: a case that runs in less than one calibration
         kernel's worth of time — on both sides — measures constant
         overheads and GC state, not work; its ratio is reported but kept
         out of the geomean.  A real regression that pushes the fresh time
         above the floor is still counted. *)
      if fn < 1. && bn < 1. then floored := (name, fn /. bn) :: !floored
      else ratios := (name, fn /. bn) :: !ratios;
      let fs, bs = normalized "sat_s" in
      sat_ratios := fs /. bs :: !sat_ratios)
    fresh_rows;
  List.iter
    (fun (name, r) ->
      pr "%-11s total %.2fx of baseline (below noise floor, informational)\n"
        name r)
    (List.rev !floored);
  if !ratios = [] then
    (* Every case sits below the noise floor: their ratios are measurement
       noise, and a regression large enough to matter would have crossed
       the floor and been counted.  Pass, loudly. *)
    pr "check-summary: OK (all %d cases below the noise floor)\n%!"
      (List.length !floored)
  else begin
    List.iter
      (fun (name, r) -> pr "%-11s total %.2fx of baseline (normalized)\n" name r)
      (List.rev !ratios);
    let g_total = Harness.geomean (List.map snd !ratios) in
    pr
      "geomean: total %.3fx, sat %.3fx (gate %.2fx, calibration %.3fs vs %.3fs)\n%!"
      g_total (Harness.geomean !sat_ratios) gate fc bc;
    if g_total > gate then begin
      Printf.eprintf
        "check-summary: FAIL - %.1f%% geomean regression exceeds the %.0f%% gate\n"
        ((g_total -. 1.) *. 100.)
        ((gate -. 1.) *. 100.);
      exit 1
    end
    else pr "check-summary: OK\n%!"
  end

(* ----------------------------------------------------------------- Fig. 7 *)

let fig7 () =
  heading
    "Figure 7 - SAT time on the miter after P / P+G / P+G+L, normalized to standalone SAT";
  let pool = Lazy.force pool in
  pr "%-11s %10s %10s %10s %10s\n" "case" "standalone" "P" "PG" "PGL";
  List.iter
    (fun case ->
      let m = Cases.prepare case in
      let _, t_alone = Harness.run_sat_baseline ~pool m in
      let reduced_after stop_after =
        let r =
          Simsweep.Engine.run ~config:Simsweep.Config.scaled ?stop_after ~pool
            (Aig.Network.copy m)
        in
        r.Simsweep.Engine.reduced
      in
      let sat_time_on g =
        if Aig.Miter.solved g then 0.
        else snd (Harness.run_sat_baseline ~pool g)
      in
      let tp = sat_time_on (reduced_after (Some `P)) in
      let tpg = sat_time_on (reduced_after (Some `G)) in
      let tpgl = sat_time_on (reduced_after None) in
      let norm t = if t_alone <= 0. then 0. else t /. t_alone in
      pr "%-11s %9.3fs %10.3f %10.3f %10.3f\n%!" case.Cases.name t_alone
        (norm tp) (norm tpg) (norm tpgl))
    Cases.table2

(* -------------------------------------------------------------- ablations *)

(* Table I ablation: run the L phases with a single cut-selection pass. *)
let ablation_passes () =
  heading "Ablation (Table I) - cut-selection passes in the L phase";
  let pool = Lazy.force pool in
  let cases = [ "multiplier"; "square"; "voter" ] in
  pr "%-11s %14s %14s %14s %14s\n" "case" "pass1(fanout)" "pass2(lowlvl)"
    "pass3(highlvl)" "all-three";
  List.iter
    (fun name ->
      let m = Cases.prepare (Cases.find name) in
      let run passes =
        let cfg = { Simsweep.Config.scaled with Simsweep.Config.passes } in
        let r =
          Simsweep.Engine.run ~config:cfg ~pool (Aig.Network.copy m)
        in
        Simsweep.Engine.reduction_percent r
      in
      let p1 = run [ Cuts.Criteria.Fanout_first ] in
      let p2 = run [ Cuts.Criteria.Small_level_first ] in
      let p3 = run [ Cuts.Criteria.Large_level_first ] in
      let all = run Cuts.Criteria.table1 in
      pr "%-11s %13.1f%% %13.1f%% %13.1f%% %13.1f%%\n%!" name p1 p2 p3 all)
    cases

(* §III-B3 ablation: window merging on/off. *)
let ablation_merge () =
  heading "Ablation (III-B3) - window merging";
  let pool = Lazy.force pool in
  pr "%-11s | %12s %12s %9s | %12s %12s %9s\n" "case" "nodes(on)" "time(on)"
    "windows" "nodes(off)" "time(off)" "windows";
  List.iter
    (fun name ->
      let m = Cases.prepare (Cases.find name) in
      let run window_merging =
        let cfg =
          { Simsweep.Config.scaled with Simsweep.Config.window_merging }
        in
        let r, t =
          Harness.time (fun () ->
              Simsweep.Engine.run ~config:cfg ~pool
                (Aig.Network.copy m))
        in
        (r.Simsweep.Engine.stats.Simsweep.Stats.exhaustive, t)
      in
      let on, t_on = run true in
      let off, t_off = run false in
      pr "%-11s | %12d %11.3fs %9d | %12d %11.3fs %9d\n%!" name
        on.Simsweep.Exhaustive.nodes_simulated t_on
        on.Simsweep.Exhaustive.windows off.Simsweep.Exhaustive.nodes_simulated
        t_off off.Simsweep.Exhaustive.windows)
    [ "log2"; "sin"; "ac97_ctrl" ]

(* §III-C1 ablation: similarity-steered cut selection on/off. *)
let ablation_similarity () =
  heading "Ablation (III-C1) - similarity-steered cut selection";
  let pool = Lazy.force pool in
  pr "%-11s %16s %16s\n" "case" "reduced%(on)" "reduced%(off)";
  List.iter
    (fun name ->
      let m = Cases.prepare (Cases.find name) in
      let run similarity_selection =
        let cfg =
          {
            Simsweep.Config.scaled with
            Simsweep.Config.similarity_selection;
            max_local_phases = 4;
          }
        in
        let r =
          Simsweep.Engine.run ~config:cfg ~pool (Aig.Network.copy m)
        in
        Simsweep.Engine.reduction_percent r
      in
      pr "%-11s %15.1f%% %15.1f%%\n%!" name (run true) (run false))
    [ "multiplier"; "square"; "voter" ]

(* ------------------------------------------------------------------ main *)

let experiments =
  [
    ("table2", table2);
    ("check-summary", check_summary);
    ("fig7", fig7);
    ("ablation-passes", ablation_passes);
    ("ablation-merge", ablation_merge);
    ("ablation-sim", ablation_similarity);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let chosen = if args = [] then List.map fst experiments else args in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (available: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    chosen;
  Par.Pool.shutdown (Lazy.force pool)
