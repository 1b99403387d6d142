type config = {
  seed : int64;
  cases : int;
  out_dir : string;
  certify_every : int;  (** certificate-replay every Nth case; 0 disables *)
  shrink_budget : int;
}

let default_config =
  {
    seed = 1L;
    cases = 100;
    out_dir = "fuzz-out";
    certify_every = 10;
    shrink_budget = 400;
  }

type summary = {
  cases_run : int;
  failed_cases : int;
  repros : Report.repro list;
}

let null_log _ = ()

(* Internal bundle threaded through the shared per-case helpers. *)
type ctx = { cfg : config; pool : Par.Pool.t }

let shrink_failure ~engines ~pool ~budget ~miter failures =
  let fails g =
    let o = Oracle.run ~engines ~pool g in
    List.exists (fun f -> List.exists (Oracle.similar f) failures) o.Oracle.failures
  in
  Shrink.shrink ~budget ~fails miter

(* The multi-process shard coordinator as an oracle engine, cross-checked
   against the in-process engines on every generated miter.  A tiny shard
   budget packs even fuzz-sized miters and splits the groups that split
   cheaply (a group whose outputs share most of their logic stays whole),
   so the plan/extract/lift path is exercised; the deadline bounds a
   wedged coordinator.
   NOTE: any binary embedding this engine must call
   [Shard.Worker.maybe_become_worker] first thing in [main] — the
   coordinator re-execs the host executable to make workers. *)
let shard_engine =
  {
    Oracle.name = "shard";
    run =
      (fun ~pool:_ m ->
        let config =
          {
            Shard.Check.default_config with
            Shard.Check.workers = 2;
            max_shard_ands = 64;
            deadline_s = Some 120.;
          }
        in
        fst (Shard.Check.check ~config m));
  }

let engines_of extra_engines =
  Oracle.default_engines @ [ shard_engine ] @ extra_engines

(* Shrink a failed miter and persist the repro — shared by the seeded
   stream, the wall-clock soak and the AIGER-directory modes. *)
let record_failure ~log ~engines ~config ~case_id ~descr ~miter failures =
  let shrunk, evals =
    shrink_failure ~engines ~pool:config.pool ~budget:config.cfg.shrink_budget
      ~miter failures
  in
  let repro =
    Report.write ~dir:config.cfg.out_dir ~case_id ~run_seed:config.cfg.seed
      ~descr
      ~failures:(List.map Oracle.failure_token failures)
      ~original:miter ~shrunk
  in
  log
    (Printf.sprintf "repro case %04d: %d -> %d AND nodes (%d shrink evals) -> %s"
       case_id repro.Report.original_ands repro.Report.shrunk_ands evals
       repro.Report.path);
  repro

(* One generated case of the deterministic stream: oracle, log line, and
   (on failure) shrink + repro. *)
let run_case ~log ~engines ~config ~id =
  let cfg = config.cfg in
  let case = Gencase.generate ~run_seed:cfg.seed ~id in
  let certify = cfg.certify_every > 0 && id mod cfg.certify_every = 0 in
  let outcome =
    Oracle.run ~engines ~expected:case.Gencase.expected ~certify
      ~pool:config.pool case.Gencase.miter
  in
  log (Report.case_line ~case ~outcome);
  if outcome.Oracle.failures = [] then None
  else
    Some
      (record_failure ~log ~engines ~config ~case_id:id
         ~descr:case.Gencase.descr ~miter:case.Gencase.miter
         outcome.Oracle.failures)

let run ?(log = null_log) ?(extra_engines = []) ~pool cfg =
  let engines = engines_of extra_engines in
  let config = { cfg; pool } in
  let failed = ref 0 in
  let repros = ref [] in
  for id = 0 to cfg.cases - 1 do
    match run_case ~log ~engines ~config ~id with
    | None -> ()
    | Some repro ->
        incr failed;
        repros := repro :: !repros
  done;
  { cases_run = cfg.cases; failed_cases = !failed; repros = List.rev !repros }

let run_soak ?(log = null_log) ?(progress = null_log) ?(extra_engines = [])
    ~pool ~minutes cfg =
  let engines = engines_of extra_engines in
  let config = { cfg; pool } in
  let start = Unix.gettimeofday () in
  let deadline = start +. (60. *. minutes) in
  let failed = ref 0 in
  let repros = ref [] in
  let id = ref 0 in
  let last_progress = ref start in
  while Unix.gettimeofday () < deadline do
    (match run_case ~log ~engines ~config ~id:!id with
    | None -> ()
    | Some repro ->
        incr failed;
        repros := repro :: !repros);
    incr id;
    let now = Unix.gettimeofday () in
    if now -. !last_progress >= 15. then begin
      last_progress := now;
      progress
        (Printf.sprintf "soak: %d cases, %d failures, %.1f/%.1f minutes" !id
           !failed ((now -. start) /. 60.) minutes)
    end
  done;
  progress
    (Printf.sprintf "soak done: %d cases, %d failures in %.1f minutes" !id
       !failed ((Unix.gettimeofday () -. start) /. 60.));
  { cases_run = !id; failed_cases = !failed; repros = List.rev !repros }

let run_dir ?(log = null_log) ?(extra_engines = []) ~pool ~dir cfg =
  let engines = engines_of extra_engines in
  let config = { cfg; pool } in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".aig" || Filename.check_suffix f ".aag")
    |> List.sort compare
  in
  let checked = ref 0 in
  let failed = ref 0 in
  let repros = ref [] in
  List.iteri
    (fun id file ->
      let path = Filename.concat dir file in
      match Aig.Aiger_io.read_file path with
      | exception e ->
          log (Printf.sprintf "skip %s: %s" path (Printexc.to_string e))
      | miter ->
          incr checked;
          (* No constructed expectation: the file is an opaque miter, so
             the oracle checks cross-engine agreement and CEX replay. *)
          let outcome = Oracle.run ~engines ~pool miter in
          log
            (Printf.sprintf "file %-28s pis=%3d ands=%5d  %s%s" file
               (Aig.Network.num_pis miter)
               (Aig.Network.num_ands miter)
               (String.concat " "
                  (List.map
                     (fun (n, v) ->
                       Printf.sprintf "%s:%s" n (Oracle.verdict_token v))
                     outcome.Oracle.verdicts))
               (if outcome.Oracle.failures = [] then "" else "  FAIL"));
          if outcome.Oracle.failures <> [] then begin
            incr failed;
            repros :=
              record_failure ~log ~engines ~config ~case_id:id
                ~descr:("file:" ^ file) ~miter outcome.Oracle.failures
              :: !repros
          end)
    files;
  { cases_run = !checked; failed_cases = !failed; repros = List.rev !repros }

(* The liar: an engine with a silent miscompare, the exact failure class
   the harness exists to catch. *)
let liar = { Oracle.name = "liar"; run = (fun ~pool:_ _ -> Simsweep.Engine.Proved) }

(* Broken model reconstruction: a direct per-PO SAT check that runs the
   preprocessor but reads counter-example PI values from the simplified
   solver's model, skipping {!Sat.Simplify.extend_model}.
   When preprocessing eliminates a PI that matters, the CEX is garbage —
   the failure class the oracle's replay stage exists to catch. *)
let badrecon =
  {
    Oracle.name = "badrecon";
    run =
      (fun ~pool:_ m ->
        let pos = Aig.Miter.unsolved_outputs m in
        let frozen =
          List.filter_map
            (fun po ->
              let l = Aig.Network.po m po in
              if Aig.Network.is_const (Aig.Lit.node l) then None
              else Some (Sat.Solver.var_of_lit (Sat.Cnf.lit l)))
            pos
        in
        let solver =
          (Sat.Simplify.run ~nvars:(Aig.Network.num_nodes m) ~frozen
             (Sat.Cnf.clauses m))
            .Sat.Simplify.solver
        in
        let rec go = function
          | [] -> Simsweep.Engine.Proved
          | po :: rest -> (
              let l = Aig.Network.po m po in
              if Aig.Network.is_const (Aig.Lit.node l) then
                if Aig.Lit.is_compl l then go rest
                else
                  Simsweep.Engine.Disproved
                    (Array.make (Aig.Network.num_pis m) false, po)
              else
                match
                  Sat.Solver.solve ~assumptions:[ Sat.Cnf.lit l ]
                    ~conflict_limit:10_000 solver
                with
                | Sat.Solver.Unsat -> go rest
                | Sat.Solver.Unknown -> Simsweep.Engine.Undecided
                | Sat.Solver.Sat ->
                    Simsweep.Engine.Disproved
                      (Sat.Cnf.cex m (Sat.Solver.model_value solver), po))
        in
        go pos);
  }

(* Broken-reconstruction stage: generate injected-fault miters until the
   stub emits a CEX that does not replay (i.e. preprocessing eliminated a
   PI the raw model gets wrong), then check the oracle flags it. *)
let badrecon_stage log ~pool ~seed =
  let rec attempt k =
    if k >= 20 then
      Error
        "self-test: the broken-reconstruction stub never produced an \
         invalid CEX in 20 attempts"
    else
      let rng =
        Sim.Rng.create ~seed:(Int64.add seed (Int64.of_int (7001 + k)))
      in
      let left =
        Gen.Control.random_logic ~pis:12 ~nodes:200 ~pos:4 ~seed:(Sim.Rng.next64 rng)
      in
      let right = Opt.Resyn.light left in
      let _fault, mutant = Gencase.inject rng ~left right in
      let miter = Aig.Miter.build left mutant in
      match badrecon.Oracle.run ~pool miter with
      | Simsweep.Engine.Disproved (cex, po) when not (Sim.Cex.check miter cex po) ->
          let o = Oracle.run ~engines:[ badrecon ] ~pool miter in
          let flagged =
            List.exists
              (function
                | Oracle.Bad_cex { engine = "badrecon"; _ } -> true
                | _ -> false)
              o.Oracle.failures
          in
          if flagged then begin
            log
              (Printf.sprintf
                 "self-test: broken reconstruction flagged as bad-cex \
                  (attempt %d, PO %d)"
                 (k + 1) po);
            Ok ()
          end
          else
            Error
              "self-test: the broken-reconstruction CEX was NOT flagged by \
               the oracle"
      | _ -> attempt (k + 1)
  in
  attempt 0

(* Shard worker-crash stage of the self-test: a worker is SIGKILLed right
   after pulling its first shard; the coordinator must reap it, requeue
   the shard, spawn a replacement and still conclude correctly. *)
let shardkill_stage log ~seed =
  let rng =
    Sim.Rng.create
      ~seed:(Int64.add (Int64.mul seed 0x9E3779B97F4A7C15L) 0x2545F4914F6CDD1DL)
  in
  let left =
    Gen.Control.random_logic ~pis:12 ~nodes:300 ~pos:10 ~seed:(Sim.Rng.next64 rng)
  in
  let right = Opt.Resyn.light left in
  (* Equivalent by construction: resynthesis preserves semantics. *)
  let miter = Aig.Miter.build left right in
  let config =
    {
      Shard.Check.default_config with
      Shard.Check.workers = 2;
      max_shard_ands = 64;
      test_kill_worker = Some 0;
      max_respawns = 2;
      deadline_s = Some 120.;
    }
  in
  let outcome, st = Shard.Check.check ~config miter in
  if st.Shard.Stats.workers_crashed < 1 then
    Error "self-test: shard fault injection did not register a worker crash"
  else
    match outcome with
    | Simsweep.Engine.Proved ->
        log
          (Printf.sprintf
             "self-test: shard survived a worker kill (%d crashed, %d \
              respawned, %d shards)"
             st.Shard.Stats.workers_crashed st.Shard.Stats.respawns
             st.Shard.Stats.shards);
        Ok ()
    | Simsweep.Engine.Disproved _ ->
        Error "self-test: shard disproved an equivalent miter after worker kill"
    | Simsweep.Engine.Undecided ->
        Error "self-test: shard lost the killed worker's shard (undecided)"

(* Bad-payload stage of the self-test: a worker fed a truncated binary
   AIGER image and bytes that are no AIGER at all must answer each with a
   framed [Shard_failed] — never crash or wedge — and still serve a
   correct dispatch on the same connection afterwards. *)
let badpayload_stage log ~seed =
  let module Pr = Shard.Protocol in
  let rng =
    Sim.Rng.create
      ~seed:(Int64.add (Int64.mul seed 0x9E3779B97F4A7C15L) 0x51AFD2E1L)
  in
  let left =
    Gen.Control.random_logic ~pis:10 ~nodes:200 ~pos:6 ~seed:(Sim.Rng.next64 rng)
  in
  let image =
    Aig.Aiger_io.to_binary_string (Aig.Miter.build left (Opt.Resyn.light left))
  in
  let w = Shard.Proc.spawn ~domains:1 in
  Fun.protect ~finally:(fun () -> Shard.Proc.kill w) @@ fun () ->
  let recv what =
    match Pr.recv_reply (Shard.Proc.ic w) with
    | Ok r -> Ok r
    | Error Pr.Eof ->
        Error (Printf.sprintf "self-test: bad payload (%s): worker closed the stream" what)
    | Error (Pr.Bad e) ->
        Error (Printf.sprintf "self-test: bad payload (%s): bad reply: %s" what e)
  in
  let dispatch aiger =
    Pr.send_task (Shard.Proc.oc w)
      (Pr.Shard_check { shard = 0; aiger; deadline_in = Some 60. })
  in
  let ( let* ) = Result.bind in
  let* () =
    match recv "startup" with
    | Ok Pr.Shard_ready -> Ok ()
    | Ok _ -> Error "self-test: bad payload: worker did not announce ready"
    | Error e -> Error e
  in
  let expect_failed what aiger =
    dispatch aiger;
    match recv what with
    | Ok (Pr.Shard_failed { msg; _ }) ->
        log (Printf.sprintf "self-test: bad payload (%s) -> framed failure: %s" what msg);
        Ok ()
    | Ok _ ->
        Error
          (Printf.sprintf
             "self-test: bad payload (%s): worker answered with a verdict \
              instead of Shard_failed"
             what)
    | Error e -> Error e
  in
  let* () =
    expect_failed "truncated image"
      (String.sub image 0 (String.length image / 2))
  in
  let* () = expect_failed "not an AIGER" "\x00\xffno header here\n" in
  (* The same connection must still be serviceable. *)
  dispatch image;
  match recv "valid image" with
  | Ok (Pr.Shard_verdict { verdict = Simsweep.Engine.Proved; _ }) ->
      log "self-test: bad payload stage OK (worker survived and then proved)";
      Ok ()
  | Ok _ ->
      Error
        "self-test: bad payload: worker failed the valid dispatch after \
         surviving the bad ones"
  | Error e -> Error e

let self_test ?(log = null_log) ~pool ~out_dir ~seed () =
  let rng =
    Sim.Rng.create ~seed:(Int64.add (Int64.mul seed 0x2545F4914F6CDD1DL) 0x9E3779B97F4A7C15L)
  in
  (* A mutant big enough that the <= 20% shrink target is meaningful. *)
  let left =
    Gen.Control.random_logic ~pis:10 ~nodes:260 ~pos:8 ~seed:(Sim.Rng.next64 rng)
  in
  let right = Opt.Resyn.light left in
  let fault, mutant = Gencase.inject rng ~left right in
  let miter = Aig.Miter.build left mutant in
  let original_ands = Aig.Network.num_ands miter in
  log
    (Printf.sprintf "self-test: injected %s into a %d-AND miter"
       (Mutate.describe fault) original_ands);
  let engines = Oracle.default_engines @ [ liar ] in
  let outcome = Oracle.run ~engines ~pool miter in
  let liar_caught =
    List.exists
      (function
        | Oracle.Disagreement { equiv; inequiv = _ } -> List.mem "liar" equiv
        | _ -> false)
      outcome.Oracle.failures
  in
  if not liar_caught then
    Error "self-test: the injected silent miscompare was NOT flagged by the oracle"
  else begin
    log "self-test: miscompare flagged; shrinking";
    (* The disagreement persists exactly while the miter stays
       inequivalent: the liar always says EQ, brute says INEQ. *)
    let brute_and_liar =
      List.filter (fun e -> e.Oracle.name = "brute") engines @ [ liar ]
    in
    let fails g =
      let o = Oracle.run ~engines:brute_and_liar ~pool g in
      List.exists (function Oracle.Disagreement _ -> true | _ -> false) o.Oracle.failures
    in
    let shrunk, evals = Shrink.shrink ~budget:600 ~fails miter in
    let shrunk_ands = Aig.Network.num_ands shrunk in
    log
      (Printf.sprintf "self-test: shrunk %d -> %d AND nodes (%d evals)" original_ands
         shrunk_ands evals);
    if shrunk_ands * 5 > original_ands then
      Error
        (Printf.sprintf
           "self-test: shrinker left %d of %d AND nodes (> 20%% of the original)"
           shrunk_ands original_ands)
    else begin
      let repro =
        Report.write ~dir:out_dir ~case_id:0 ~run_seed:seed ~descr:"self-test"
          ~failures:(List.map Oracle.failure_token outcome.Oracle.failures)
          ~original:miter ~shrunk
      in
      (* The written artifact must reproduce the disagreement on its own. *)
      let reread = Aig.Aiger_io.read_file repro.Report.path in
      let replay = Oracle.run ~engines ~pool reread in
      let reproduces =
        List.exists
          (function
            | Oracle.Disagreement { equiv; _ } -> List.mem "liar" equiv
            | _ -> false)
          replay.Oracle.failures
      in
      if not reproduces then
        Error "self-test: the shrunk AIGER file does not reproduce the disagreement"
      else
        match badrecon_stage log ~pool ~seed with
        | Error e -> Error e
        | Ok () -> (
            match shardkill_stage log ~seed with
            | Error e -> Error e
            | Ok () -> (
                match badpayload_stage log ~seed with
                | Error e -> Error e
                | Ok () ->
                    log
                      (Printf.sprintf "self-test: OK (repro %s)"
                         repro.Report.path);
                    Ok repro))
    end
  end
