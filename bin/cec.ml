(* simsweep-cec: combinational equivalence checker CLI.

   Checks two AIGER files (or a generated benchmark case) with a selectable
   engine: the simulation-based engine (the paper's contribution), the SAT
   sweeper baseline, the BDD engine, the portfolio, or the combined
   engine+SAT flow of Table II. *)

let read_inputs file1 file2 suite scale post_double =
  let enlarge (name, miter) =
    if post_double <= 0 then (name, miter)
    else
      ( Printf.sprintf "%s(x%d)" name (1 lsl post_double),
        Gen.Double.times post_double miter )
  in
  match (file1, file2, suite) with
  | Some f1, Some f2, None ->
      let g1 = Aig.Aiger_io.read_file f1 and g2 = Aig.Aiger_io.read_file f2 in
      Ok (enlarge (Printf.sprintf "%s vs %s" f1 f2, Aig.Miter.build g1 g2))
  | Some f1, None, None ->
      (* A single file is interpreted as an already-built miter. *)
      Ok (enlarge (f1, Aig.Aiger_io.read_file f1))
  | None, None, Some name ->
      let case = Gen.Suite.build ~scale name in
      Ok (enlarge ("suite:" ^ name, case.Gen.Suite.miter))
  | _ -> Error "give either FILE [FILE2] or --suite NAME"

let describe_outcome = function
  | Simsweep.Engine.Proved -> "EQUIVALENT"
  | Simsweep.Engine.Disproved (_, po) -> Printf.sprintf "NOT EQUIVALENT (output %d)" po
  | Simsweep.Engine.Undecided -> "UNDECIDED"

let engine_tag = function
  | `Sim -> "sim"
  | `Combined -> "combined"
  | `Sat -> "sat"
  | `Bdd -> "bdd"
  | `Partitioned -> "partitioned"
  | `Portfolio -> "portfolio"

(* Client mode: ship the miter to a running daemon (simsweep-serve) and
   let it check — repeated checks of the same cones hit the daemon's
   cross-request equivalence cache. *)
let run_remote addr engine_str name miter stats_json =
  match Serve.Client.connect (Serve.Client.parse_addr addr) with
  | Error e ->
      Printf.eprintf "error: cannot connect to %s: %s\n" addr e;
      2
  | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let req =
        Serve.Protocol.Cec
          {
            aiger = Aig.Aiger_io.to_binary_string miter;
            engine = engine_str;
            timeout_s = None;
          }
      in
      (match Serve.Client.request c req with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          2
      | Ok r ->
          Printf.printf "%s  (%.3fs on %s; cache: %d hits, %d misses)\n"
            r.Serve.Protocol.output r.Serve.Protocol.elapsed_s addr
            r.Serve.Protocol.cache_hits r.Serve.Protocol.cache_misses;
          (match stats_json with
          | Some file ->
              let open Simsweep.Telemetry in
              write_file file
                (Obj
                   [
                     ("name", String name);
                     ("engine", String engine_str);
                     ("server", String addr);
                     ("output", String r.Serve.Protocol.output);
                     ("ok", Bool r.Serve.Protocol.ok);
                     ("time_s", Float r.Serve.Protocol.elapsed_s);
                     ("cache_hits", Int r.Serve.Protocol.cache_hits);
                     ("cache_misses", Int r.Serve.Protocol.cache_misses);
                   ])
          | None -> ());
          if not r.Serve.Protocol.ok then 2
          else
            let out = r.Serve.Protocol.output in
            let starts p =
              String.length out >= String.length p
              && String.sub out 0 (String.length p) = p
            in
            if starts "NOT EQUIVALENT" then 1
            else if starts "EQUIVALENT" then 0
            else 3)

(* Sharded mode: partition the miter, fork [shard_n] worker processes and
   coordinate them (work-stealing).  The coordinator itself needs no
   domain pool. *)
let run_shard shard_n name miter num_domains verbose stats_json =
  let worker_domains =
    match num_domains with Some j -> max 1 (j / max 1 shard_n) | None -> 1
  in
  let config =
    { Shard.Check.default_config with workers = shard_n; worker_domains }
  in
  let t0 = Unix.gettimeofday () in
  Printf.printf "miter %s: %s\n%!" name
    (Format.asprintf "%a" Aig.Stats.pp (Aig.Stats.of_network miter));
  let outcome, st = Shard.Check.check ~config miter in
  let elapsed = Unix.gettimeofday () -. t0 in
  if verbose then
    Printf.printf
      "shard: %d shards (%d groups, %d split) over %d workers, %d steals, %d \
       crashed\n"
      st.Shard.Stats.shards st.Shard.Stats.groups st.Shard.Stats.split_groups
      st.Shard.Stats.workers
      (Array.fold_left ( + ) 0 (Shard.Stats.steals st))
      st.Shard.Stats.workers_crashed;
  if verbose then
    Printf.printf
      "data plane: %d B tx / %d B rx in %d+%d frames, %d warm + %d cold \
       starts\n"
      st.Shard.Stats.bytes_tx st.Shard.Stats.bytes_rx st.Shard.Stats.frames_tx
      st.Shard.Stats.frames_rx st.Shard.Stats.warm_starts
      st.Shard.Stats.cold_starts;
  Printf.printf "%s  (%.3fs)\n" (describe_outcome outcome) elapsed;
  (match stats_json with
  | Some file ->
      let open Simsweep.Telemetry in
      let j =
        Obj
          [
            ("name", String name);
            ("engine", String "shard");
            ("outcome", String (outcome_string outcome));
            ("time_s", Float elapsed);
            ( "miter",
              Obj
                [
                  ("pis", Int (Aig.Network.num_pis miter));
                  ("pos", Int (Aig.Network.num_pos miter));
                  ("ands", Int (Aig.Network.num_ands miter));
                ] );
            ("shard", Shard.Stats.to_json st);
          ]
      in
      (try
         write_file file j;
         if verbose then Printf.printf "stats written to %s\n" file
       with Sys_error msg ->
         Printf.eprintf "cec: cannot write stats file: %s\n" msg)
  | None -> ());
  match outcome with
  | Simsweep.Engine.Proved -> 0
  | Simsweep.Engine.Disproved _ -> 1
  | Simsweep.Engine.Undecided -> 3

let run_check engine file1 file2 suite scale post_double num_domains race
    verbose certify stats_json server no_simplify shard_n max_frame_mb =
  Serve.Protocol.set_max_frame (max_frame_mb * 1024 * 1024);
  match read_inputs file1 file2 suite scale post_double with
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      2
  | Ok (name, miter) when server <> None ->
      (* --shard N rides along to the daemon as the engine string, so a
         warm daemon answers shard requests from its persistent worker
         pool instead of this process forking cold workers. *)
      let engine_str =
        if shard_n > 0 then Printf.sprintf "shard.%d" shard_n
        else engine_tag engine
      in
      run_remote (Option.get server) engine_str name miter stats_json
  | Ok (name, miter) when shard_n > 0 ->
      run_shard shard_n name miter num_domains verbose stats_json
  | Ok (name, miter) ->
      if verbose then begin
        Logs.set_reporter (Logs.format_reporter ());
        Logs.set_level (Some Logs.Debug)
      end;
      (* A racing portfolio spawns two racer domains next to the pool:
         unless the user pinned the pool size, shrink it so pool workers
         plus racers stay within the recommended domain count. *)
      let num_domains =
        match (num_domains, race, engine) with
        | None, true, `Portfolio ->
            Some (Simsweep.Portfolio.recommended_pool_domains ())
        | _ -> num_domains
      in
      let pool = Par.Pool.create ?num_domains () in
      Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      Printf.printf "miter %s: %s\n%!" name
        (Format.asprintf "%a" Aig.Stats.pp (Aig.Stats.of_network miter));
      (* Per-engine telemetry fields for the --stats-json snapshot. *)
      let telemetry = ref [] in
      let outcome =
        match engine with
        | `Sim ->
            let r = Simsweep.Engine.run ~config:Simsweep.Config.scaled ~pool miter in
            if verbose then
              Printf.printf "engine: reduced %.1f%% | %s\n"
                (Simsweep.Engine.reduction_percent r)
                (Format.asprintf "%a" Simsweep.Stats.pp r.Simsweep.Engine.stats);
            telemetry := [ ("run", Simsweep.Telemetry.of_run r) ];
            r.Simsweep.Engine.outcome
        | `Combined ->
            let c =
              Simsweep.Engine.check_with_fallback ~config:Simsweep.Config.scaled
                ~transfer_classes:true ~pool miter
            in
            if verbose then
              Printf.printf "engine: reduced %.1f%%, SAT fallback %s\n"
                (Simsweep.Engine.reduction_percent c.Simsweep.Engine.engine)
                (if c.Simsweep.Engine.sat_outcome = None then "not needed" else "used");
            telemetry := [ ("combined", Simsweep.Telemetry.of_combined c) ];
            c.Simsweep.Engine.final
        | `Sat ->
            let config =
              { Sat.Sweep.default_config with simplify = not no_simplify }
            in
            let sat_outcome, sat_stats = Sat.Sweep.check ~config ~pool miter in
            telemetry := [ ("sat", Simsweep.Telemetry.of_sat sat_stats) ];
            (match sat_outcome with
            | Sat.Sweep.Equivalent -> Simsweep.Engine.Proved
            | Sat.Sweep.Inequivalent (cex, po) -> Simsweep.Engine.Disproved (cex, po)
            | Sat.Sweep.Undecided -> Simsweep.Engine.Undecided)
        | `Bdd -> (
            match Bdd.check miter with
            | `Equivalent -> Simsweep.Engine.Proved
            | `Inequivalent (cex, po) -> Simsweep.Engine.Disproved (cex, po)
            | `Node_limit | `Timeout -> Simsweep.Engine.Undecided)
        | `Partitioned ->
            let outcome, ngroups =
              Simsweep.Partition.check ~config:Simsweep.Config.scaled ~pool miter
            in
            if verbose then Printf.printf "partition: %d groups\n" ngroups;
            telemetry := [ ("partition_groups", Simsweep.Telemetry.Int ngroups) ];
            outcome
        | `Portfolio ->
            let mode = if race then `Race else `Sequential in
            let r = Simsweep.Portfolio.check ~mode ~pool miter in
            if verbose then begin
              Printf.printf "portfolio mode: %s%s\n"
                (Simsweep.Portfolio.mode_name r.Simsweep.Portfolio.mode_used)
                (if race && r.Simsweep.Portfolio.mode_used = `Sequential then
                   " (race degraded: not enough cores)"
                 else "");
              (match r.Simsweep.Portfolio.winner with
              | Some e ->
                  Printf.printf "portfolio winner: %s\n"
                    (Simsweep.Portfolio.engine_name e)
              | None -> ());
              List.iter
                (fun (e, t) ->
                  Printf.printf "  %s: %.3fs\n"
                    (Simsweep.Portfolio.engine_name e) t)
                r.Simsweep.Portfolio.per_engine_time;
              match r.Simsweep.Portfolio.cancel_latency with
              | Some l -> Printf.printf "  cancel latency: %.3fs\n" l
              | None -> ()
            end;
            telemetry :=
              [ ("portfolio", Simsweep.Telemetry.of_portfolio r) ];
            r.Simsweep.Portfolio.outcome
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Printf.printf "%s  (%.3fs)\n" (describe_outcome outcome) elapsed;
      (match stats_json with
      | Some file ->
          let open Simsweep.Telemetry in
          let j =
            Obj
              ([
                 ("name", String name);
                 ("engine", String (engine_tag engine));
                 ("outcome", String (outcome_string outcome));
                 ("time_s", Float elapsed);
                 ( "miter",
                   Obj
                     [
                       ("pis", Int (Aig.Network.num_pis miter));
                       ("pos", Int (Aig.Network.num_pos miter));
                       ("ands", Int (Aig.Network.num_ands miter));
                     ] );
                 ("pool", of_pool (Par.Pool.stats pool));
               ]
              @ !telemetry)
          in
          (try
             write_file file j;
             if verbose then Printf.printf "stats written to %s\n" file
           with Sys_error msg ->
             Printf.eprintf "cec: cannot write stats file: %s\n" msg)
      | None -> ());
      (if certify then
         match outcome with
         | Simsweep.Engine.Proved -> (
             let _, cert =
               Simsweep.Certificate.generate ~config:Simsweep.Config.scaled ~pool
                 miter
             in
             if not cert.Simsweep.Certificate.claims_proved then
               print_endline
                 "certificate: engine alone could not complete a certificate \
                  (SAT fallback was needed)"
             else
               match Simsweep.Certificate.validate miter cert with
               | Ok _ ->
                   Printf.printf "certificate: %d steps validated independently\n"
                     (List.length cert.Simsweep.Certificate.steps)
               | Error e -> Printf.printf "certificate INVALID: %s\n" e)
         | _ -> print_endline "certificate: only produced for proved miters");
      (match outcome with
      | Simsweep.Engine.Disproved (cex, po) when verbose ->
          Printf.printf "counter-example (output %d): " po;
          Array.iter (fun b -> print_char (if b then '1' else '0')) cex;
          print_newline ()
      | _ -> ());
      (match outcome with
      | Simsweep.Engine.Proved -> 0
      | Simsweep.Engine.Disproved _ -> 1
      | Simsweep.Engine.Undecided -> 3)

open Cmdliner

let engine =
  let enum_conv =
    Arg.enum
      [
        ("sim", `Sim); ("sat", `Sat); ("bdd", `Bdd); ("portfolio", `Portfolio);
        ("combined", `Combined); ("partitioned", `Partitioned);
      ]
  in
  Arg.(value & opt enum_conv `Combined & info [ "e"; "engine" ] ~docv:"ENGINE"
         ~doc:"Checking engine: sim (simulation-based), sat (SAT sweeping), \
               bdd, portfolio, combined (sim + SAT fallback, the paper's \
               Table II flow), or partitioned (combined flow per \
               support-disjoint output group).")

let file1 =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"First AIGER file (or a miter when FILE2 is omitted).")

let file2 =
  Arg.(value & pos 1 (some file) None & info [] ~docv:"FILE2" ~doc:"Second AIGER file.")

let suite =
  Arg.(value & opt (some string) None & info [ "suite" ] ~docv:"NAME"
         ~doc:"Check a generated Table II benchmark case instead of files \
               (hyp, log2, multiplier, sqrt, square, voter, sin, ac97_ctrl, \
               vga_lcd).")

let scale =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N"
         ~doc:"Doubling scale for --suite cases (0 disables doubling).")

let post_double =
  Arg.(value & opt int 0 & info [ "post-double" ] ~docv:"K"
         ~doc:"Enlarge the built miter by K doublings ($(b,2^K) disjoint \
               copies) before checking — the paper's enlargement method, \
               applied to the miter itself; useful for exercising --shard \
               on giant instances.")

let num_domains =
  Arg.(value & opt (some int) None & info [ "j"; "domains" ] ~docv:"N"
         ~doc:"Worker domains (default: machine-dependent).")

let race =
  Arg.(value & flag & info [ "race" ]
         ~doc:"Race the portfolio engines concurrently (with --engine \
               portfolio): BDD and SAT sweeping each get a dedicated \
               domain next to the pool-parallel simulation engine; the \
               first conclusive verdict cancels the losers.  Degrades to \
               the sequential portfolio when the machine lacks cores.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print engine details.")

let certify =
  Arg.(value & flag & info [ "certify" ]
         ~doc:"After a proof, regenerate it with a merge-trace certificate \
               and validate every step independently with the SAT solver.")

let stats_json =
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
         ~doc:"Write a machine-readable telemetry snapshot (outcome, \
               per-phase times, window/word counts, pool utilization, SAT \
               effort) to FILE as JSON.")

let no_simplify =
  Arg.(value & flag & info [ "no-simplify" ]
         ~doc:"Disable SAT-solver preprocessing (BVE, subsumption, \
               equivalent literals, XOR/Gauss, probing) in the SAT \
               sweeping engine.  Verdicts are identical either way; the \
               flag exists for A/B timing and debugging.")

let server =
  Arg.(value & opt (some string) None & info [ "server" ] ~docv:"ADDR"
         ~doc:"Check on a running simsweep-serve daemon at ADDR (a Unix \
               socket path or HOST:PORT) instead of in-process; repeated \
               checks hit the daemon's cross-request equivalence cache.")

let shard_n =
  Arg.(value & opt int 0 & info [ "shard" ] ~docv:"N"
         ~doc:"Check with N coordinated worker processes instead of a \
               single in-process engine: the miter is partitioned into \
               shards (output-cone groups, large groups split at PO \
               boundaries), workers pull shards work-stealing style and \
               check each with the sweeping engine and its SAT fallback.  \
               Overrides --engine; 0 disables.  With --server, the shard \
               request is served by the daemon's warm worker pool.")

let max_frame_mb =
  Arg.(value & opt int 256 & info [ "max-frame-mb" ] ~docv:"MB"
         ~doc:"Protocol frame cap (header + binary payload) in megabytes \
               for shard and --server traffic; bounds the largest AIGER a \
               single frame may carry.")

let cmd =
  let doc = "simulation-based parallel sweeping equivalence checker" in
  Cmd.v
    (Cmd.info "simsweep-cec" ~doc)
    Term.(
      const run_check $ engine $ file1 $ file2 $ suite $ scale $ post_double
      $ num_domains $ race $ verbose $ certify $ stats_json $ server
      $ no_simplify $ shard_n $ max_frame_mb)

let () =
  (* Re-exec'ed children of `--shard` coordinators become workers here. *)
  Shard.Worker.maybe_become_worker ();
  exit (Cmd.eval' cmd)
