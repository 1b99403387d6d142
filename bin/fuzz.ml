(* simsweep-fuzz: differential fuzzing of the CEC engines.

   Random miters with a known expected verdict are checked by every
   engine; any disagreement, non-replaying counter-example or invalid
   certificate is shrunk to a minimal AIGER reproducer.  Fully
   deterministic from --seed: the case stream, verdict log and shrink
   sequence are identical run-to-run.

   Exit codes: 0 clean, 1 oracle failures found (repros written),
   2 usage error, 4 self-test machinery failure. *)

let run seed cases minutes aig_dir out_dir self_test num_domains shrink_budget
    certify_every quiet =
  let pool = Par.Pool.create ?num_domains () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let log line = if not quiet then print_endline line in
  let config =
    {
      Fuzz.Runner.seed = Int64.of_int seed;
      cases;
      out_dir;
      shrink_budget;
      certify_every;
    }
  in
  let self_test_failed = ref false in
  if self_test then begin
    match
      Fuzz.Runner.self_test ~log ~pool ~out_dir ~seed:(Int64.of_int seed) ()
    with
    | Ok repro ->
        Printf.printf "self-test: fault detected and shrunk %d -> %d AND nodes\n%!"
          repro.Fuzz.Report.original_ands repro.Fuzz.Report.shrunk_ands
    | Error msg ->
        Printf.eprintf "%s\n%!" msg;
        self_test_failed := true
  end;
  if !self_test_failed then 4
  else begin
    let summary =
      match (aig_dir, minutes) with
      | Some dir, _ -> Fuzz.Runner.run_dir ~log ~pool ~dir config
      | None, Some minutes ->
          Fuzz.Runner.run_soak ~log ~progress:print_endline ~pool ~minutes
            config
      | None, None -> Fuzz.Runner.run ~log ~pool config
    in
    Printf.printf "fuzz: %d cases, %d failures (seed %d)\n%!"
      summary.Fuzz.Runner.cases_run summary.Fuzz.Runner.failed_cases seed;
    List.iter
      (fun r ->
        Printf.printf "  repro: %s (%d -> %d AND nodes)\n%!" r.Fuzz.Report.path
          r.Fuzz.Report.original_ands r.Fuzz.Report.shrunk_ands)
      summary.Fuzz.Runner.repros;
    if summary.Fuzz.Runner.failed_cases > 0 then 1 else 0
  end

open Cmdliner

(* The flags default to the runner's own defaults. *)
let default = Fuzz.Runner.default_config

let seed =
  Arg.(value & opt int (Int64.to_int default.Fuzz.Runner.seed)
       & info [ "seed" ] ~docv:"N"
         ~doc:"Run seed. Every case, verdict and shrink step derives from it \
               deterministically, so any failure replays from this one number.")

let cases =
  Arg.(value & opt int default.Fuzz.Runner.cases
       & info [ "cases" ] ~docv:"N" ~doc:"Number of fuzz cases.")

let minutes =
  Arg.(value & opt (some float) None & info [ "minutes" ] ~docv:"MIN"
         ~doc:"Soak mode: stream cases for MIN minutes of wall clock instead \
               of a fixed count, with a progress line every ~15s. The case \
               stream is the same deterministic sequence as --cases, so a \
               soak failure at case N replays with --cases N+1.")

let aig_dir =
  Arg.(value & opt (some dir) None & info [ "aig-dir" ] ~docv:"DIR"
         ~doc:"Ingest mode: run the oracle over every .aig/.aag miter in DIR \
               (sorted; unreadable files are skipped with a warning) instead \
               of generating cases. Overrides --cases and --minutes.")

let out_dir =
  Arg.(value & opt string default.Fuzz.Runner.out_dir
       & info [ "out" ] ~docv:"DIR"
         ~doc:"Directory for shrunk AIGER reproducers.")

let self_test =
  Arg.(value & flag & info [ "self-test" ]
         ~doc:"First verify the harness itself: inject a known fault plus a \
               deliberately lying engine, and require the oracle to flag it \
               and the shrinker to reduce the miter to at most 20% of its \
               nodes, with the written repro still reproducing.")

let num_domains =
  Arg.(value & opt (some Cli.positive_int) None
       & info [ "j"; "domains" ] ~docv:"N"
         ~doc:"Worker domains, at least 1 (default: machine-dependent).")

let shrink_budget =
  Arg.(value & opt int default.Fuzz.Runner.shrink_budget
       & info [ "shrink-budget" ] ~docv:"N"
         ~doc:"Oracle evaluations the shrinker may spend per failure.")

let certify_every =
  Arg.(value & opt int default.Fuzz.Runner.certify_every
       & info [ "certify-every" ] ~docv:"N"
         ~doc:"Replay a proof certificate on every Nth case (0 disables).")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-case log lines.")

let cmd =
  let doc = "differential fuzzing of the CEC engines" in
  Cmd.v
    (Cmd.info "simsweep-fuzz" ~doc)
    Term.(
      const run $ seed $ cases $ minutes $ aig_dir $ out_dir $ self_test
      $ num_domains $ shrink_budget $ certify_every $ quiet)

let () =
  (* The oracle's shard engine re-execs this binary to make its workers. *)
  Shard.Worker.maybe_become_worker ();
  exit (Cli.eval cmd)
