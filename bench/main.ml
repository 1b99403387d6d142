(* Bench harness: regenerates every table and figure of the paper's
   evaluation (Section IV) on the scaled benchmark suite, plus the ablations
   called out in DESIGN.md and Bechamel micro-benchmarks of the core
   kernels.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- table2     # one experiment
     dune exec bench/main.exe -- fig6 fig7 ablation-passes micro

   Absolute times are CPU-scale; the paper's testbed was an RTX A6000, so
   EXPERIMENTS.md compares shapes (who wins, where the engine stops on its
   own) rather than raw numbers. *)

let pool = lazy (Par.Pool.create ())

let pr fmt = Printf.printf fmt

let heading title = pr "\n=== %s ===\n%!" title

(* ---------------------------------------------------------------- Table II *)

let bench_json_file = "BENCH_cec.json"

(* Compact perf-trajectory digest, committed to the repo; the check-summary
   gate compares a fresh run against it. *)
let summary_file = "BENCH_summary.json"

(* BENCH_CASES=log2,sin restricts table2 to a subset — the CI smoke job
   uses this to exercise the full harness and JSON schema in minutes. *)
let selected_cases () =
  match Sys.getenv_opt "BENCH_CASES" with
  | None | Some "" -> Cases.table2
  | Some spec ->
      let names = String.split_on_char ',' spec |> List.map String.trim in
      List.map Cases.find names

(* Winner name for the histograms ("none" when the portfolio is undecided). *)
let winner_name (r : Simsweep.Portfolio.result) =
  match r.Simsweep.Portfolio.winner with
  | Some e -> Simsweep.Portfolio.engine_name e
  | None -> "none"

let bump h k = Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))

let hist_json h =
  Simsweep.Telemetry.Obj
    (Hashtbl.fold (fun k v acc -> (k, Simsweep.Telemetry.Int v) :: acc) h []
    |> List.sort compare)

let float_opt = function
  | None -> Simsweep.Telemetry.Null
  | Some x -> Simsweep.Telemetry.Float x

(* Compact per-row portfolio snapshot: verdict, winner, mode, per-engine
   wall-clock — the schema-v3 data the race is judged on. *)
let portfolio_json (r : Simsweep.Portfolio.result) t =
  let open Simsweep.Telemetry in
  Obj
    [
      ("time_s", Float t);
      ("outcome", String (outcome_string r.Simsweep.Portfolio.outcome));
      ("winner", String (winner_name r));
      ("mode_used", String (Simsweep.Portfolio.mode_name r.Simsweep.Portfolio.mode_used));
      ( "per_engine_time_s",
        Obj
          (List.map
             (fun (e, t) -> (Simsweep.Portfolio.engine_name e, Float t))
             r.Simsweep.Portfolio.per_engine_time) );
      ("bdd_timeout", Bool r.Simsweep.Portfolio.bdd_timeout);
      ( "cancel_latency_s",
        match r.Simsweep.Portfolio.cancel_latency with
        | None -> Null
        | Some l -> Float l );
    ]

let table2 () =
  heading
    "Table II - runtime comparison (ABC-analog = SAT sweeping, Cfm-analog = portfolio)";
  let pool = Lazy.force pool in
  Par.Pool.reset_stats pool;
  pr "%-11s %7s %6s %8s | %8s %8s %8s | %8s %7s %8s %9s | %8s %8s\n" "case"
    "PIs" "POs" "ANDs" "SAT(s)" "Pf(s)" "Race(s)" "GPU(s)" "Red%" "SATf(s)"
    "Total(s)" "vs SAT" "vs Pf";
  let calibration = Harness.calibrate () in
  let sp_sat = ref [] and sp_pf = ref [] and sp_race = ref [] in
  let seq_hist = Hashtbl.create 4 and race_hist = Hashtbl.create 4 in
  (* Seed both histograms with every portfolio engine so the schema names
     each one even when it never wins. *)
  List.iter
    (fun n ->
      Hashtbl.replace seq_hist n 0;
      Hashtbl.replace race_hist n 0)
    [ "sim"; "bdd"; "sat" ];
  let rows = ref [] and srows = ref [] in
  (* Per-stage progress on stderr: a full table2 run takes tens of minutes
     on small machines and each case's row only prints once all four
     measurements finish. *)
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
      let p = progress case "prepare" (fun () -> Cases.prepare case) in
      let m = p.Cases.miter in
      let sat_outcome, sat_time =
        progress case "sat-baseline" (fun () -> Harness.run_sat_baseline ~pool m)
      in
      let pf, pf_time =
        progress case "portfolio-seq" (fun () -> Harness.run_portfolio ~pool m)
      in
      let pfr, pfr_time =
        progress case "portfolio-race" (fun () ->
            Harness.run_portfolio ~mode:`Race ~pool m)
      in
      (* A race that degraded for lack of cores re-timed the sequential
         cascade: it is no race sample. *)
      let race_time =
        match pfr.Simsweep.Portfolio.mode_used with
        | `Race -> Some pfr_time
        | `Sequential -> None
      in
      let ours = progress case "ours" (fun () -> Harness.run_ours ~pool m) in
      let su_sat = sat_time /. ours.Harness.total in
      let su_pf = pf_time /. ours.Harness.total in
      sp_sat := su_sat :: !sp_sat;
      sp_pf := su_pf :: !sp_pf;
      bump seq_hist (winner_name pf);
      Option.iter
        (fun t ->
          sp_race := (pf_time /. t) :: !sp_race;
          bump race_hist (winner_name pfr))
        race_time;
      ignore sat_outcome;
      (let open Simsweep.Telemetry in
       rows :=
         Obj
           [
             ("name", String case.Cases.name);
             ("pis", Int (Aig.Network.num_pis m));
             ("pos", Int (Aig.Network.num_pos m));
             ("ands", Int (Aig.Network.num_ands m));
             ("outcome", String (outcome_string ours.Harness.outcome));
             ("sat_baseline_s", Float sat_time);
             ("portfolio_s", Float pf_time);
             ("portfolio", portfolio_json pf pf_time);
             ("portfolio_race", portfolio_json pfr pfr_time);
             ("gpu_s", Float ours.Harness.gpu_time);
             ("reduction_percent", Float ours.Harness.reduced_percent);
             ("sat_fallback_s", float_opt ours.Harness.sat_time);
             ("total_s", Float ours.Harness.total);
             ("speedup_vs_sat", Float su_sat);
             ("speedup_vs_portfolio", Float su_pf);
             ("engine_stats", of_engine_stats ours.Harness.engine_stats);
             ( "sat_stats",
               match ours.Harness.sat_stats with
               | None -> Null
               | Some s -> of_sat s );
           ]
         :: !rows;
       srows :=
         Obj
           [
             ("name", String case.Cases.name);
             ("ands", Int (Aig.Network.num_ands m));
             ("outcome", String (outcome_string ours.Harness.outcome));
             ("sat_s", Float sat_time);
             ("portfolio_s", Float pf_time);
             ("race_s", float_opt race_time);
             ("gpu_s", Float ours.Harness.gpu_time);
             ("sat_fallback_s", float_opt ours.Harness.sat_time);
             ("total_s", Float ours.Harness.total);
             ("speedup_vs_sat", Float su_sat);
           ]
         :: !srows);
      let cell default = function
        | None -> default
        | Some t -> Printf.sprintf "%.3f" t
      in
      pr
        "%-11s %7d %6d %8d | %8.3f %8.3f %8s | %8.3f %7.1f %8s %9.3f | %7.2fx %7.2fx\n%!"
        case.Cases.name (Aig.Network.num_pis m) (Aig.Network.num_pos m)
        (Aig.Network.num_ands m) sat_time pf_time (cell "seq" race_time)
        ours.Harness.gpu_time ours.Harness.reduced_percent
        (cell "-" ours.Harness.sat_time)
        ours.Harness.total su_sat su_pf)
    (selected_cases ());
  pr "%-11s %71s | %7.2fx %7.2fx\n" "geomean" "" (Harness.geomean !sp_sat)
    (Harness.geomean !sp_pf);
  (* [Harness.geomean []] is nan, which JSON cannot carry: with no raced
     row the race geomean is null. *)
  let race_geomean =
    if !sp_race = [] then None else Some (Harness.geomean !sp_race)
  in
  (match race_geomean with
  | Some g -> pr "portfolio race vs sequential: %.2fx geomean\n%!" g
  | None -> pr "portfolio race vs sequential: no row raced\n%!");
  (* Machine-readable snapshot: the perf trajectory future PRs compare
     against. *)
  let open Simsweep.Telemetry in
  write_file bench_json_file
    (Obj
       [
         ("schema", String "bench-cec-v3");
         ("experiment", String "table2");
         ("domains", Int (Par.Pool.num_workers pool));
         ("cases", List (List.rev !rows));
         ("geomean_speedup_vs_sat", Float (Harness.geomean !sp_sat));
         ("geomean_speedup_vs_portfolio", Float (Harness.geomean !sp_pf));
         ("geomean_race_vs_sequential", float_opt race_geomean);
         ( "winner_histogram",
           Obj
             [
               ("sequential", hist_json seq_hist); ("race", hist_json race_hist);
             ] );
         ("pool", of_pool (Par.Pool.stats pool));
       ]);
  pr "wrote %s\n%!" bench_json_file;
  write_file summary_file
    (Obj
       [
         ("schema", String "bench-summary-v3");
         ("experiment", String "table2");
         ("domains", Int (Par.Pool.num_workers pool));
         ("calibration_s", Float calibration);
         ("cases", List (List.rev !srows));
         ("geomean_speedup_vs_sat", Float (Harness.geomean !sp_sat));
         ("geomean_speedup_vs_portfolio", Float (Harness.geomean !sp_pf));
         ("geomean_race_vs_sequential", float_opt race_geomean);
         ( "winner_histogram",
           Obj
             [
               ("sequential", hist_json seq_hist); ("race", hist_json race_hist);
             ] );
       ]);
  pr "wrote %s\n%!" summary_file

(* ------------------------------------------------------------- perf gate *)

(* check-summary: compare the BENCH_summary.json just regenerated by
   [table2] against a baseline (the checked-in digest; override with
   BENCH_BASELINE).  Per-case totals are normalized by each run's
   calibration kernel, so the gate compares work rather than machines;
   >10% geomean regression (BENCH_GATE overrides) exits non-zero. *)
let check_summary () =
  heading "perf gate - fresh BENCH_summary.json vs baseline";
  let open Simsweep.Telemetry in
  let read file =
    let ic = open_in file in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match parse text with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "check-summary: cannot parse %s: %s\n" file e;
        exit 2
  in
  let fresh = read summary_file in
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
  let baseline = read baseline_file in
  let num = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None in
  let calib j =
    match Option.bind (member "calibration_s" j) num with
    | Some c when c > 0. -> c
    | _ -> 1.
  in
  let cases j =
    match member "cases" j with
    | Some (List l) -> l
    | _ -> []
  in
  let field row key = Option.bind (member key row) num in
  let name_of row =
    match member "name" row with Some (String s) -> s | _ -> ""
  in
  let base_by_name =
    List.map (fun row -> (name_of row, row)) (cases baseline)
  in
  (* Informational: the sharded-sweeping block merged in by the [shard]
     experiment rides along in the summary but is not gated — its wall
     clock depends on worker/core count, not on per-case engine work. *)
  (match member "shard" fresh with
  | Some block ->
      let s key = Option.value ~default:"?" (string_member key block) in
      let f key = Option.value ~default:0. (float_member key block) in
      pr
        "shard block: %s (%d workers) %s in %.3fs, single-process %.3fs \
         (%.2fx, informational)\n"
        (s "case")
        (Option.value ~default:0 (int_member "workers" block))
        (s "outcome") (f "shard_s") (f "single_process_s") (f "speedup")
  | None -> ());
  let fc = calib fresh and bc = calib baseline in
  let gate =
    match Option.bind (Sys.getenv_opt "BENCH_GATE") float_of_string_opt with
    | Some g -> g
    | None -> 1.10
  in
  let ratios = ref [] and sat_ratios = ref [] and floored = ref [] in
  List.iter
    (fun row ->
      match List.assoc_opt (name_of row) base_by_name with
      | None -> ()
      | Some base_row ->
          let ratio key acc =
            match (field row key, field base_row key) with
            | Some f, Some b when f > 0. && b > 0. ->
                let fn = f /. fc and bn = b /. bc in
                (* Noise floor: a case that runs in less than one
                   calibration kernel's worth of time — on both sides —
                   measures constant overheads and GC state, not work;
                   its ratio is reported but kept out of the geomean.  A
                   real regression that pushes the fresh time above the
                   floor is still counted. *)
                if key = "total_s" && fn < 1. && bn < 1. then
                  floored := (name_of row, fn /. bn) :: !floored
                else acc := (name_of row, fn /. bn) :: !acc
            | _ -> ()
          in
          ratio "total_s" ratios;
          ratio "sat_s" sat_ratios)
    (cases fresh);
  if !ratios = [] && !floored = [] then begin
    Printf.eprintf
      "check-summary: no common cases between %s and %s\n" summary_file
      baseline_file;
    exit 2
  end;
  List.iter
    (fun (name, r) ->
      pr "%-11s total %.2fx of baseline (below noise floor, informational)\n"
        name r)
    (List.rev !floored);
  if !ratios = [] then begin
    (* Every common case sits below the noise floor: their ratios are
       measurement noise, and a regression large enough to matter would
       have crossed the floor and been counted.  Pass, loudly. *)
    pr "check-summary: OK (all %d common cases below the noise floor)\n%!"
      (List.length !floored);
    exit 0
  end;
  List.iter
    (fun (name, r) -> pr "%-11s total %.2fx of baseline (normalized)\n" name r)
    (List.rev !ratios);
  let g_total = Harness.geomean (List.map snd !ratios) in
  let g_sat = Harness.geomean (List.map snd !sat_ratios) in
  pr "geomean: total %.3fx, sat %.3fx (gate %.2fx, calibration %.3fs vs %.3fs)\n%!"
    g_total g_sat gate fc bc;
  if g_total > gate then begin
    Printf.eprintf
      "check-summary: FAIL - %.1f%% geomean regression exceeds the %.0f%% gate\n"
      ((g_total -. 1.) *. 100.)
      ((gate -. 1.) *. 100.);
    exit 1
  end
  else pr "check-summary: OK\n%!"

(* ------------------------------------------------------------------ shard *)

(* Multi-process sharded sweeping on a [Gen.Double]-enlarged case tens of
   times larger than any table2 miter, against single-process
   [Partition.check] on the same miter.  SHARD_WORKERS and SHARD_DOUBLE
   override the defaults (2 workers, x2^9 — ~860k ANDs, ~74x the largest
   table2 case).  The result is merged into BENCH_summary.json as a
   ["shard"] block so check-summary reports it alongside the perf gate. *)
let shard_bench () =
  heading "Sharded sweeping - multi-process coordinator vs single process";
  let pool = Lazy.force pool in
  let getenv_int key default =
    match Option.bind (Sys.getenv_opt key) int_of_string_opt with
    | Some v when v > 0 -> v
    | _ -> default
  in
  let workers = getenv_int "SHARD_WORKERS" 2 in
  let doubles = getenv_int "SHARD_DOUBLE" 9 in
  let p = Cases.prepare (Cases.find "ac97_ctrl") in
  let m = Gen.Double.times doubles p.Cases.miter in
  let ands = Aig.Network.num_ands m in
  pr "case ac97_ctrl x2^%d: %d PIs, %d POs, %d ANDs, %d workers\n%!" doubles
    (Aig.Network.num_pis m) (Aig.Network.num_pos m) ands workers;
  let config = { Shard.Check.default_config with Shard.Check.workers } in
  let (sh_outcome, sh_stats), sh_time =
    Harness.time (fun () -> Shard.Check.check ~config m)
  in
  let (sp_outcome, _), sp_time =
    Harness.time (fun () -> Simsweep.Partition.check ~pool m)
  in
  let tag o =
    match o with
    | Simsweep.Engine.Proved -> "equivalent"
    | Simsweep.Engine.Disproved _ -> "inequivalent"
    | Simsweep.Engine.Undecided -> "undecided"
  in
  pr "%-24s %10s %10s\n" "" "outcome" "time";
  pr "%-24s %10s %9.3fs (%d shards, %d steals)\n" "shard coordinator"
    (tag sh_outcome) sh_time sh_stats.Shard.Stats.shards
    (Array.fold_left ( + ) 0 (Shard.Stats.steals sh_stats));
  pr "%-24s %10s %9.3fs\n" "single-process partition" (tag sp_outcome) sp_time;
  pr "speedup: %.2fx on %d domains\n%!" (sp_time /. sh_time)
    (Par.Pool.num_workers pool);
  if tag sh_outcome <> tag sp_outcome then begin
    Printf.eprintf "shard: verdict mismatch (%s vs %s)\n" (tag sh_outcome)
      (tag sp_outcome);
    exit 1
  end;
  (* Merge the shard block into the summary digest in place: the rest of
     the file (table2's cases and geomeans) is left untouched so the perf
     gate's baseline comparison is unaffected. *)
  let open Simsweep.Telemetry in
  let block =
    Obj
      [
        ("case", String (Printf.sprintf "ac97_ctrl(x%d)" (1 lsl doubles)));
        ("ands", Int ands);
        ("workers", Int workers);
        ("outcome", String (tag sh_outcome));
        ("shard_s", Float sh_time);
        ("single_process_s", Float sp_time);
        ("speedup", Float (sp_time /. sh_time));
        ("stats", Shard.Stats.to_json sh_stats);
      ]
  in
  let existing =
    if Sys.file_exists summary_file then begin
      let ic = open_in summary_file in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match parse text with Ok (Obj kvs) -> kvs | _ -> []
    end
    else []
  in
  let kvs = List.filter (fun (k, _) -> k <> "shard") existing in
  write_file summary_file (Obj (kvs @ [ ("shard", block) ]));
  pr "merged shard block into %s\n%!" summary_file

(* ----------------------------------------------------------------- Fig. 6 *)

let fig6 () =
  heading "Figure 6 - runtime breakdown of the engine phases (P / G / L %)";
  let pool = Lazy.force pool in
  pr "%-11s %8s %8s %8s   %s\n" "case" "P%" "G%" "L%" "(bar)";
  List.iter
    (fun case ->
      let p = Cases.prepare case in
      let r =
        Simsweep.Engine.run ~config:Simsweep.Config.scaled ~pool
          (Aig.Network.copy p.Cases.miter)
      in
      let fp, fg, fl = Simsweep.Stats.breakdown r.Simsweep.Engine.stats in
      let bar =
        let n f = int_of_float (20. *. f) in
        String.make (n fp) 'P' ^ String.make (n fg) 'G' ^ String.make (n fl) 'L'
      in
      pr "%-11s %8.1f %8.1f %8.1f   %s\n%!" case.Cases.name (100. *. fp)
        (100. *. fg) (100. *. fl) bar)
    Cases.table2

(* ----------------------------------------------------------------- Fig. 7 *)

let fig7 () =
  heading
    "Figure 7 - SAT time on the miter after P / P+G / P+G+L, normalized to standalone SAT";
  let pool = Lazy.force pool in
  pr "%-11s %10s %10s %10s %10s\n" "case" "standalone" "P" "PG" "PGL";
  List.iter
    (fun case ->
      let p = Cases.prepare case in
      let m = p.Cases.miter in
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
      let p = Cases.prepare (Cases.find name) in
      let run passes =
        let cfg = { Simsweep.Config.scaled with Simsweep.Config.passes } in
        let r =
          Simsweep.Engine.run ~config:cfg ~pool (Aig.Network.copy p.Cases.miter)
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
      let p = Cases.prepare (Cases.find name) in
      let run window_merging =
        let cfg =
          { Simsweep.Config.scaled with Simsweep.Config.window_merging }
        in
        let r, t =
          Harness.time (fun () ->
              Simsweep.Engine.run ~config:cfg ~pool
                (Aig.Network.copy p.Cases.miter))
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
      let p = Cases.prepare (Cases.find name) in
      let run similarity_selection =
        let cfg =
          {
            Simsweep.Config.scaled with
            Simsweep.Config.similarity_selection;
            max_local_phases = 4;
          }
        in
        let r =
          Simsweep.Engine.run ~config:cfg ~pool (Aig.Network.copy p.Cases.miter)
        in
        Simsweep.Engine.reduction_percent r
      in
      pr "%-11s %15.1f%% %15.1f%%\n%!" name (run true) (run false))
    [ "multiplier"; "square"; "voter" ]

(* §V extension ablation: EC transfer from the engine to the SAT sweeper. *)
let ablation_ec_transfer () =
  heading "Ablation (V) - EC transfer to the SAT fallback";
  let pool = Lazy.force pool in
  pr "%-11s | %12s %10s | %12s %10s\n" "case" "no-transfer" "SAT calls"
    "transfer" "SAT calls";
  List.iter
    (fun name ->
      let p = Cases.prepare (Cases.find name) in
      let cfg =
        { Simsweep.Config.scaled with Simsweep.Config.max_local_phases = 2 }
      in
      let run transfer =
        let c, t =
          Harness.time (fun () ->
              Simsweep.Engine.check_with_fallback ~config:cfg
                ~transfer_classes:transfer ~pool
                (Aig.Network.copy p.Cases.miter))
        in
        let calls =
          match c.Simsweep.Engine.sat_stats with
          | Some st -> st.Sat.Sweep.sat_calls
          | None -> 0
        in
        (t, calls)
      in
      let t0, c0 = run false in
      let t1, c1 = run true in
      pr "%-11s | %11.3fs %10d | %11.3fs %10d\n%!" name t0 c0 t1 c1)
    [ "hyp"; "sqrt"; "voter" ]

(* §V extension ablation: adaptive pass disabling and interleaved
   rewriting during the repeated L phases. *)
let ablation_flow_tweaks () =
  heading "Ablation (V) - adaptive passes & interleaved rewriting";
  let pool = Lazy.force pool in
  pr "%-11s | %10s %7s | %10s %7s | %10s %7s
" "case" "base(s)" "red%"
    "adaptive" "red%" "rewrite" "red%";
  List.iter
    (fun name ->
      let p = Cases.prepare (Cases.find name) in
      let run adaptive rewrite =
        let cfg =
          {
            Simsweep.Config.scaled with
            Simsweep.Config.adaptive_passes = adaptive;
            rewrite_between_phases = rewrite;
            max_local_phases = 8;
          }
        in
        let r, t =
          Harness.time (fun () ->
              Simsweep.Engine.run ~config:cfg ~pool
                (Aig.Network.copy p.Cases.miter))
        in
        (t, Simsweep.Engine.reduction_percent r)
      in
      let tb, rb = run false false in
      let ta, ra = run true false in
      let tr, rr = run false true in
      pr "%-11s | %9.3fs %6.1f%% | %9.3fs %6.1f%% | %9.3fs %6.1f%%
%!" name tb
        rb ta ra tr rr)
    [ "multiplier"; "voter"; "hyp" ]

(* Post-mapping equivalence workload: original AIG vs its k-LUT mapped and
   resynthesised netlist — industrial CEC's main driver, and a harder miter
   family than resyn2's (the mapped structure shares much less). *)
let postmap () =
  heading "Post-mapping CEC (original vs 6-LUT mapped netlist)";
  let pool = Lazy.force pool in
  pr "%-11s %8s %8s | %8s %8s %7s | %8s
" "case" "ANDs" "LUTs" "SAT(s)"
    "GPU(s)" "Red%" "Total(s)";
  List.iter
    (fun name ->
      let p = Cases.prepare (Cases.find name) in
      let g = p.Cases.original in
      let m = Lutmap.Mapper.map ~k:6 g in
      let mapped = Lutmap.Mapper.to_network m in
      let miter = Aig.Miter.build g mapped in
      let _, sat_time = Harness.run_sat_baseline ~pool miter in
      let ours = Harness.run_ours ~pool miter in
      pr "%-11s %8d %8d | %8.3f %8.3f %6.1f%% | %8.3f
%!" name
        (Aig.Network.num_ands miter)
        (Lutmap.Mapper.lut_count m)
        sat_time ours.Harness.gpu_time ours.Harness.reduced_percent
        ours.Harness.total)
    [ "multiplier"; "square"; "voter"; "ac97_ctrl"; "vga_lcd" ]

(* --------------------------------------------------------------- ingest *)

(* BENCH_AIG_DIR=dir: check every AIGER miter in [dir] (the checked-in
   examples/aiger fixtures by default) with the combined flow. *)
let ingest () =
  heading "AIGER ingest - checked-in miters (BENCH_AIG_DIR)";
  let dir =
    match Sys.getenv_opt "BENCH_AIG_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.concat "examples" "aiger"
  in
  let files =
    match Sys.readdir dir with
    | entries ->
        Array.to_list entries
        |> List.filter (fun f ->
               Filename.check_suffix f ".aig" || Filename.check_suffix f ".aag")
        |> List.sort compare
    | exception Sys_error e ->
        Printf.eprintf "ingest: cannot read %s: %s\n" dir e;
        exit 2
  in
  if files = [] then begin
    Printf.eprintf "ingest: no .aig/.aag files in %s\n" dir;
    exit 2
  end;
  let pool = Lazy.force pool in
  pr "%-28s %7s %8s | %9s | %s\n" "file" "PIs" "ANDs" "Total(s)" "outcome";
  List.iter
    (fun f ->
      let m = Aig.Aiger_io.read_file (Filename.concat dir f) in
      let ours = Harness.run_ours ~pool m in
      pr "%-28s %7d %8d | %9.3f | %s\n%!" f (Aig.Network.num_pis m)
        (Aig.Network.num_ands m) ours.Harness.total
        (Harness.outcome_tag ours.Harness.outcome))
    files

(* ------------------------------------------------------- Bechamel kernels *)

let micro () =
  heading "Bechamel micro-benchmarks (one kernel per experiment)";
  let open Bechamel in
  let pool = Lazy.force pool in
  let mult = Cases.prepare (Cases.find "multiplier") in
  let sin_ = Cases.prepare (Cases.find "sin") in
  (* Table II kernel: one full engine run on the multiplier miter. *)
  let t_engine =
    Test.make ~name:"table2-engine-multiplier"
      (Staged.stage (fun () ->
           ignore
             (Simsweep.Engine.run ~config:Simsweep.Config.scaled ~pool
                (Aig.Network.copy mult.Cases.miter))))
  in
  let t_sat =
    Test.make ~name:"table2-satsweep-multiplier"
      (Staged.stage (fun () ->
           ignore (Sat.Sweep.check ~pool (Aig.Network.copy mult.Cases.miter))))
  in
  (* Fig. 6 kernel: the partial simulator that initialises the ECs. *)
  let rng = Sim.Rng.create ~seed:7L in
  let t_psim =
    Test.make ~name:"fig6-partial-sim-multiplier"
      (Staged.stage (fun () ->
           ignore (Sim.Psim.run mult.Cases.miter ~nwords:4 ~rng ~pool ~embed:[])))
  in
  (* Fig. 7 kernel: one-shot exhaustive PO checking on the sin miter. *)
  let sin_pis =
    Array.init
      (Aig.Network.num_pis sin_.Cases.miter)
      (fun i -> Aig.Network.pi sin_.Cases.miter i)
  in
  let sin_jobs =
    List.filter_map
      (fun i ->
        let l = Aig.Network.po sin_.Cases.miter i in
        if l = Aig.Lit.const_false then None
        else
          Some
            {
              Simsweep.Exhaustive.inputs = sin_pis;
              pairs =
                [
                  {
                    Simsweep.Exhaustive.a = Aig.Lit.node l;
                    b = -1;
                    compl_ = Aig.Lit.is_compl l;
                    tag = i;
                  };
                ];
            })
      (List.init (Aig.Network.num_pos sin_.Cases.miter) Fun.id)
  in
  let t_exhaustive =
    Test.make ~name:"fig7-exhaustive-po-sin"
      (Staged.stage (fun () ->
           ignore
             (Simsweep.Exhaustive.run sin_.Cases.miter ~pool
                ~memory_words:(1 lsl 20) ~jobs:sin_jobs
                ~num_tags:(Aig.Network.num_pos sin_.Cases.miter) ())))
  in
  (* Table I kernel: a full cut-enumeration pass. *)
  let t_cuts =
    Test.make ~name:"table1-cut-enumeration-multiplier"
      (Staged.stage (fun () ->
           let g = mult.Cases.miter in
           let fanouts = Aig.Network.fanout_counts g in
           let levels = Aig.Network.levels g in
           let prio = Array.make (Aig.Network.num_nodes g) [] in
           for i = 0 to Aig.Network.num_pis g - 1 do
             let p = Aig.Network.pi g i in
             prio.(p) <- [ Cuts.Cut.trivial p ]
           done;
           let cfg = { Cuts.Enumerate.k_l = 8; c = 8 } in
           Aig.Network.iter_ands g (fun n ->
               prio.(n) <-
                 Cuts.Enumerate.node_cuts g cfg ~pass:Cuts.Criteria.Fanout_first
                   ~fanouts ~levels ~prio ~sim_target:None n)))
  in
  let tests =
    Test.make_grouped ~name:"simsweep"
      [ t_engine; t_sat; t_psim; t_exhaustive; t_cuts ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let rows = List.sort compare rows in
  pr "%-45s %16s\n" "kernel" "time/run";
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) ->
          let pretty =
            if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
            else Printf.sprintf "%.3f us" (est /. 1e3)
          in
          pr "%-45s %16s\n" name pretty
      | _ -> pr "%-45s %16s\n" name "n/a")
    rows

(* ------------------------------------------------------------------ main *)

let experiments =
  [
    ("table2", table2);
    ("check-summary", check_summary);
    ("shard", shard_bench);
    ("fig6", fig6);
    ("fig7", fig7);
    ("ablation-passes", ablation_passes);
    ("ablation-merge", ablation_merge);
    ("ablation-sim", ablation_similarity);
    ("ablation-ectransfer", ablation_ec_transfer);
    ("ablation-flow", ablation_flow_tweaks);
    ("postmap", postmap);
    ("ingest", ingest);
    ("micro", micro);
  ]

let () =
  (* The shard experiment re-execs this binary as its worker processes. *)
  Shard.Worker.maybe_become_worker ();
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
