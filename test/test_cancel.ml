(* Cooperative cancellation: token semantics, pre-set tokens unwinding
   every engine, the racing combinator, race-vs-sequential determinism and
   the deterministic parallel SAT-sweeping schedule. *)

(* --- token semantics ----------------------------------------------- *)

let test_token_basics () =
  let c = Par.Cancel.create () in
  Alcotest.(check bool) "fresh not set" false (Par.Cancel.is_set c);
  Alcotest.(check bool) "fresh poll" false (Par.Cancel.poll c);
  Par.Cancel.set c;
  Alcotest.(check bool) "set" true (Par.Cancel.is_set c);
  Alcotest.(check bool) "set poll" true (Par.Cancel.poll c);
  Par.Cancel.set c;
  Alcotest.(check bool) "idempotent" true (Par.Cancel.is_set c);
  Alcotest.(check bool) "opt none poll" false (Par.Cancel.poll_opt None);
  Alcotest.(check bool) "opt none is_set" false (Par.Cancel.is_set_opt None);
  Alcotest.(check bool) "opt some" true (Par.Cancel.poll_opt (Some c))

let test_token_deadline () =
  (* An already-expired deadline: is_set alone never consults the clock,
     the first poll latches expiry into the flag. *)
  let c = Par.Cancel.create ~deadline_in:(-1.0) () in
  Alcotest.(check bool) "expired but unpolled" false (Par.Cancel.is_set c);
  Alcotest.(check bool) "poll sees expiry" true (Par.Cancel.poll c);
  Alcotest.(check bool) "expiry latched" true (Par.Cancel.is_set c);
  let far = Par.Cancel.create ~deadline_in:3600.0 () in
  Alcotest.(check bool) "future deadline" false (Par.Cancel.poll far)

let test_token_check_raises () =
  let c = Par.Cancel.create () in
  Par.Cancel.check c;
  Par.Cancel.set c;
  Alcotest.check_raises "check raises" Par.Cancel.Cancelled (fun () ->
      Par.Cancel.check c)

let test_token_child () =
  (* Parent firing propagates into the child on poll… *)
  let p = Par.Cancel.create () in
  let c = Par.Cancel.child p in
  Alcotest.(check bool) "fresh child" false (Par.Cancel.poll c);
  Par.Cancel.set p;
  Alcotest.(check bool) "child unpolled" false (Par.Cancel.is_set c);
  Alcotest.(check bool) "child sees parent" true (Par.Cancel.poll c);
  Alcotest.(check bool) "latched" true (Par.Cancel.is_set c);
  (* …but setting a child never touches the parent (the racing
     portfolio's winner cancels the losers, not the request). *)
  let p2 = Par.Cancel.create () in
  let c2 = Par.Cancel.child p2 in
  Par.Cancel.set c2;
  Alcotest.(check bool) "child set" true (Par.Cancel.poll c2);
  Alcotest.(check bool) "parent clean" false (Par.Cancel.poll p2);
  (* A child may carry its own deadline independent of the parent. *)
  let c3 = Par.Cancel.child ~deadline_in:(-1.0) p2 in
  Alcotest.(check bool) "child deadline" true (Par.Cancel.poll c3);
  Alcotest.(check bool) "parent still clean" false (Par.Cancel.poll p2);
  (* An expired parent deadline also reaches the grandchild. *)
  let gp = Par.Cancel.create ~deadline_in:(-1.0) () in
  let gc = Par.Cancel.child (Par.Cancel.child gp) in
  Alcotest.(check bool) "grandchild sees expiry" true (Par.Cancel.poll gc)

(* --- a pre-set token unwinds every engine immediately --------------- *)

let preset () =
  let c = Par.Cancel.create () in
  Par.Cancel.set c;
  c

(* A miter that no engine solves structurally at build time. *)
let hard_miter () =
  let g = Gen.Arith.multiplier ~bits:4 in
  Aig.Miter.build g (Opt.Resyn.light g)

let test_solver_preset () =
  let s = Sat.Solver.create () in
  let x = Sat.Solver.new_var s and y = Sat.Solver.new_var s in
  let ( + ) v b = Sat.Solver.mklit v b in
  ignore (Sat.Solver.add_clause s [ x + false; y + false ]);
  ignore (Sat.Solver.add_clause s [ x + true; y + false ]);
  Alcotest.(check bool) "solve -> Unknown" true
    (Sat.Solver.solve ~cancel:(preset ()) s = Sat.Solver.Unknown);
  (* The solver stays usable after a cancelled call. *)
  Alcotest.(check bool) "still usable" true
    (Sat.Solver.solve s = Sat.Solver.Sat)

let test_bdd_preset () =
  Alcotest.(check bool) "bdd -> Timeout" true
    (Bdd.check ~cancel:(preset ()) (hard_miter ()) = `Timeout)

let test_bdd_step_budget () =
  (* A tiny step budget cuts the build off even under a huge node budget —
     the per-engine time-budget mechanism of the portfolio. *)
  (match Bdd.check ~node_limit:(1 lsl 20) ~step_limit:10 (hard_miter ()) with
  | `Timeout -> ()
  | _ -> Alcotest.fail "expected `Timeout under a 10-step budget");
  match Bdd.check ~node_limit:(1 lsl 20) (hard_miter ()) with
  | `Equivalent -> ()
  | _ -> Alcotest.fail "expected a proof without the budget"

let test_sweep_preset () =
  Util.with_pool @@ fun pool ->
  let o, _ = Sat.Sweep.check ~cancel:(preset ()) ~pool (hard_miter ()) in
  Alcotest.(check bool) "sweep -> Undecided" true (o = Sat.Sweep.Undecided);
  Alcotest.(check bool) "direct -> Undecided" true
    (Sat.Sweep.check_direct ~cancel:(preset ()) (hard_miter ())
    = Sat.Sweep.Undecided)

let test_engine_preset () =
  Util.with_pool @@ fun pool ->
  let r = Simsweep.Engine.run ~cancel:(preset ()) ~pool (hard_miter ()) in
  Alcotest.(check bool) "engine -> Undecided" true
    (r.Simsweep.Engine.outcome = Simsweep.Engine.Undecided);
  Alcotest.(check bool) "stats.cancelled" true
    r.Simsweep.Engine.stats.Simsweep.Stats.cancelled

let test_combined_preset () =
  (* A cancelled engine run must not fall through to the SAT sweeper. *)
  Util.with_pool @@ fun pool ->
  let c =
    Simsweep.Engine.check_with_fallback ~cancel:(preset ()) ~pool (hard_miter ())
  in
  Alcotest.(check bool) "combined -> Undecided" true
    (c.Simsweep.Engine.final = Simsweep.Engine.Undecided);
  Alcotest.(check bool) "no sat fallback" true
    (c.Simsweep.Engine.sat_outcome = None)

let test_portfolio_preset () =
  (* Every path through the portfolio honors the request token: the
     sequential chain threads it into each member engine, the race makes
     it the racers' parent. *)
  Util.with_pool @@ fun pool ->
  List.iter
    (fun mode ->
      let r =
        Simsweep.Portfolio.check ~mode ~cancel:(preset ()) ~pool (hard_miter ())
      in
      Alcotest.(check bool)
        (Simsweep.Portfolio.mode_name mode ^ " -> Undecided")
        true
        (r.Simsweep.Portfolio.outcome = Simsweep.Engine.Undecided);
      Alcotest.(check bool)
        (Simsweep.Portfolio.mode_name mode ^ " no winner")
        true
        (r.Simsweep.Portfolio.winner = None))
    [ `Sequential; `Race ]

let test_race_parent_token_stays_clean () =
  (* A conclusive race fires its internal child token, never the caller's
     per-request token: later work under the same request must not find
     it cancelled. *)
  let outer = Par.Cancel.create () in
  let instant v = { Simsweep.Portfolio.racer_name = "instant";
                    racer_run = (fun ~cancel:_ -> v);
                    racer_conclusive = (fun _ -> true) } in
  let ro = Simsweep.Portfolio.race ~cancel:outer [ instant 1; instant 2 ] in
  Alcotest.(check bool) "race had a winner" true (ro.Simsweep.Portfolio.race_winner <> None);
  Alcotest.(check bool) "outer token clean" false (Par.Cancel.poll outer)

let test_partition_preset () =
  Util.with_pool @@ fun pool ->
  let o, _ =
    Simsweep.Partition.check ~cancel:(preset ()) ~pool (hard_miter ())
  in
  Alcotest.(check bool) "partition -> Undecided" true
    (o = Simsweep.Engine.Undecided)

let test_certificate_preset () =
  Util.with_pool @@ fun pool ->
  let r, cert =
    Simsweep.Certificate.generate ~cancel:(preset ()) ~pool (hard_miter ())
  in
  Alcotest.(check bool) "certify -> Undecided" true
    (r.Simsweep.Engine.outcome = Simsweep.Engine.Undecided);
  Alcotest.(check bool) "no proof claimed" false
    cert.Simsweep.Certificate.claims_proved

let test_engine_deadline_token () =
  (* An expired deadline behaves exactly like an explicit set. *)
  Util.with_pool @@ fun pool ->
  let cancel = Par.Cancel.create ~deadline_in:(-1.0) () in
  let r = Simsweep.Engine.run ~cancel ~pool (hard_miter ()) in
  Alcotest.(check bool) "deadline -> Undecided" true
    (r.Simsweep.Engine.outcome = Simsweep.Engine.Undecided);
  Alcotest.(check bool) "stats.cancelled" true
    r.Simsweep.Engine.stats.Simsweep.Stats.cancelled

(* --- the racing combinator ------------------------------------------ *)

let fast v =
  {
    Simsweep.Portfolio.racer_name = "fast";
    racer_run = (fun ~cancel:_ -> v);
    racer_conclusive = (fun x -> x <> `Unknown);
  }

(* Returns only once cancelled — the deliberately stuck engine. *)
let hang =
  {
    Simsweep.Portfolio.racer_name = "hang";
    racer_run =
      (fun ~cancel ->
        while not (Par.Cancel.poll cancel) do
          Domain.cpu_relax ()
        done;
        raise Par.Cancel.Cancelled);
    racer_conclusive = (fun _ -> false);
  }

let test_race_cancels_hanging () =
  let open Simsweep.Portfolio in
  let ro = race [ fast `Eq; hang ] in
  (match ro.race_winner with
  | Some (0, `Eq) -> ()
  | _ -> Alcotest.fail "expected the fast racer to win");
  Alcotest.(check bool) "hanging racer cancelled" true (ro.race_results.(1) = None);
  (match ro.race_cancel_latency with
  | Some l -> Alcotest.(check bool) "latency bounded" true (l >= 0.0 && l < 20.0)
  | None -> Alcotest.fail "expected a cancel latency");
  Alcotest.(check bool) "race returned promptly" true (ro.race_time < 30.0)

let test_race_spawned_winner_cancels_caller () =
  (* The winner on a spawned domain must unwind racer 0 on the calling
     domain. *)
  let open Simsweep.Portfolio in
  let ro = race [ hang; fast `Ineq ] in
  (match ro.race_winner with
  | Some (1, `Ineq) -> ()
  | _ -> Alcotest.fail "expected the spawned racer to win");
  Alcotest.(check bool) "caller racer cancelled" true (ro.race_results.(0) = None)

let test_race_inconclusive_no_cancel () =
  (* Nobody concludes: nobody is cancelled, no winner, no latency. *)
  let open Simsweep.Portfolio in
  let ro = race [ fast `Unknown; fast `Unknown ] in
  Alcotest.(check bool) "no winner" true (ro.race_winner = None);
  Alcotest.(check bool) "no latency" true (ro.race_cancel_latency = None);
  Alcotest.(check bool) "all results kept" true
    (Array.for_all Option.is_some ro.race_results)

let test_race_crash_propagates () =
  (* A crashed racer fires the token (so the others unwind) and the
     exception surfaces to the caller. *)
  let open Simsweep.Portfolio in
  let boom =
    {
      racer_name = "boom";
      racer_run = (fun ~cancel:_ -> failwith "boom");
      racer_conclusive = (fun _ -> false);
    }
  in
  Alcotest.check_raises "crash re-raised" (Failure "boom") (fun () ->
      ignore (race [ hang; boom ]))

(* --- portfolio race mode -------------------------------------------- *)

let no_oversubscription pool (r : Simsweep.Portfolio.result) =
  (* The invariant behind graceful degrade: a race only actually runs when
     pool workers plus the two racer domains fit the machine. *)
  if r.Simsweep.Portfolio.mode_used = `Race then begin
    Alcotest.(check bool) "no oversubscription" true
      (Par.Pool.num_workers pool + Simsweep.Portfolio.race_domains
      <= Domain.recommended_domain_count ());
    let members = [ "sim"; "bdd"; "sat" ] in
    Alcotest.(check (list string)) "race members" members
      r.Simsweep.Portfolio.racers;
    Alcotest.(check bool) "engine times name only race members" true
      (List.for_all
         (fun (e, _) -> List.mem (Simsweep.Portfolio.engine_name e) members)
         r.Simsweep.Portfolio.per_engine_time)
  end
  else
    Alcotest.(check bool) "sequential has no cancel latency" true
      (r.Simsweep.Portfolio.cancel_latency = None)

let test_sizing () =
  Alcotest.(check int) "race domains" 2 Simsweep.Portfolio.race_domains;
  let p = Simsweep.Portfolio.recommended_pool_domains () in
  Alcotest.(check bool) "pool size positive" true (p >= 1);
  Alcotest.(check bool) "pool + racers fit (or floor of 1)" true
    (p + Simsweep.Portfolio.race_domains
     <= max (Domain.recommended_domain_count ())
          (1 + Simsweep.Portfolio.race_domains))

let conclusive = function
  | Simsweep.Engine.Proved | Simsweep.Engine.Disproved _ -> true
  | Simsweep.Engine.Undecided -> false

let test_race_agrees_with_sequential () =
  (* Determinism across modes: on miters every engine can decide, the race
     and the sequential portfolio must reach the same verdict (the racing
     schedule may pick a different winner, never a different answer).
     Degrades to sequential-vs-sequential on single-core machines — still
     a valid replay check of the dispatch path. *)
  Util.with_pool @@ fun pool ->
  List.iter
    (fun seed ->
      let g1 = Util.random_network ~pis:5 ~nodes:40 ~pos:3 seed in
      let g2 =
        if seed mod 2 = 0 then Opt.Resyn.light g1
        else Util.random_network ~pis:5 ~nodes:40 ~pos:3 (seed + 11)
      in
      let m = Aig.Miter.build g1 g2 in
      let s = Simsweep.Portfolio.check ~mode:`Sequential ~pool m in
      let r = Simsweep.Portfolio.check ~mode:`Race ~pool m in
      no_oversubscription pool r;
      Alcotest.(check bool) "sequential conclusive" true
        (conclusive s.Simsweep.Portfolio.outcome);
      Alcotest.(check bool) "race conclusive" true
        (conclusive r.Simsweep.Portfolio.outcome);
      (match (s.Simsweep.Portfolio.outcome, r.Simsweep.Portfolio.outcome) with
      | Simsweep.Engine.Proved, Simsweep.Engine.Proved -> ()
      | Simsweep.Engine.Disproved (c1, p1), Simsweep.Engine.Disproved (c2, p2) ->
          Alcotest.(check bool) "seq cex replays" true (Sim.Cex.check m c1 p1);
          Alcotest.(check bool) "race cex replays" true (Sim.Cex.check m c2 p2)
      | _ -> Alcotest.failf "mode disagreement on seed %d" seed);
      Alcotest.(check bool) "race winner named" true
        (r.Simsweep.Portfolio.winner <> None);
      Alcotest.(check bool) "race reports engine times" true
        (r.Simsweep.Portfolio.per_engine_time <> []))
    [ 1; 2; 3; 4; 5; 6 ]

(* --- SAT sweeping is independent of the pool size ---------------------- *)

(* Structural identity of two networks: same node table, same outputs. *)
let same_network a b =
  Aig.Network.num_nodes a = Aig.Network.num_nodes b
  && Aig.Network.num_pis a = Aig.Network.num_pis b
  && Aig.Network.num_pos a = Aig.Network.num_pos b
  && Aig.Network.pos a = Aig.Network.pos b
  &&
  let ok = ref true in
  Aig.Network.iter_ands a (fun n ->
      if
        (not (Aig.Network.is_and b n))
        || Aig.Network.fanin0 a n <> Aig.Network.fanin0 b n
        || Aig.Network.fanin1 a n <> Aig.Network.fanin1 b n
      then ok := false);
  !ok

let stats_tuple (s : Sat.Sweep.stats) =
  ( s.Sat.Sweep.sat_calls, s.sat_unsat, s.sat_sat, s.sat_unknown, s.merged,
    s.rounds, s.cex_count, s.rsim_splits, s.candidates, s.conflicts,
    s.cnf_loads )

let with_n_domains n f =
  let pool = Par.Pool.create ~num_domains:n () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let prop_parallel_sweep_deterministic =
  QCheck.Test.make ~name:"parallel sweep == sequential schedule" ~count:12
    Util.arb_seed (fun seed ->
      let g1 = Util.random_network ~pis:6 ~nodes:50 ~pos:3 seed in
      let g2 =
        if seed mod 2 = 0 then Opt.Resyn.light g1
        else Util.random_network ~pis:6 ~nodes:50 ~pos:3 (seed + 7)
      in
      let m = Aig.Miter.build g1 g2 in
      let o1, s1 = with_n_domains 1 (fun pool ->
          Sat.Sweep.check ~pool m) in
      let o3, s3 = with_n_domains 3 (fun pool ->
          Sat.Sweep.check ~pool m) in
      (* Bit-identical: same verdict (CEX included) and same stats,
         whatever the pool size. *)
      o1 = o3 && stats_tuple s1 = stats_tuple s3)

let prop_parallel_fraig_deterministic =
  QCheck.Test.make ~name:"parallel fraig == sequential schedule" ~count:8
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:60 ~pos:4 seed in
      let r1, s1 = with_n_domains 1 (fun pool ->
          Sat.Sweep.fraig ~pool g) in
      let r3, s3 = with_n_domains 3 (fun pool ->
          Sat.Sweep.fraig ~pool g) in
      same_network r1 r3 && stats_tuple s1 = stats_tuple s3)

let () =
  Alcotest.run "cancel"
    [
      ( "token",
        [
          Alcotest.test_case "basics" `Quick test_token_basics;
          Alcotest.test_case "deadline" `Quick test_token_deadline;
          Alcotest.test_case "check raises" `Quick test_token_check_raises;
          Alcotest.test_case "child link" `Quick test_token_child;
        ] );
      ( "engines",
        [
          Alcotest.test_case "solver" `Quick test_solver_preset;
          Alcotest.test_case "bdd" `Quick test_bdd_preset;
          Alcotest.test_case "bdd step budget" `Quick test_bdd_step_budget;
          Alcotest.test_case "sweep" `Quick test_sweep_preset;
          Alcotest.test_case "engine" `Quick test_engine_preset;
          Alcotest.test_case "combined" `Quick test_combined_preset;
          Alcotest.test_case "portfolio" `Quick test_portfolio_preset;
          Alcotest.test_case "race parent clean" `Quick
            test_race_parent_token_stays_clean;
          Alcotest.test_case "partition" `Quick test_partition_preset;
          Alcotest.test_case "certificate" `Quick test_certificate_preset;
          Alcotest.test_case "engine deadline" `Quick test_engine_deadline_token;
        ] );
      ( "race",
        [
          Alcotest.test_case "cancels hanging" `Quick test_race_cancels_hanging;
          Alcotest.test_case "spawned winner" `Quick
            test_race_spawned_winner_cancels_caller;
          Alcotest.test_case "inconclusive" `Quick test_race_inconclusive_no_cancel;
          Alcotest.test_case "crash propagates" `Quick test_race_crash_propagates;
          Alcotest.test_case "sizing" `Quick test_sizing;
          Alcotest.test_case "agrees with sequential" `Quick
            test_race_agrees_with_sequential;
        ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest
          [ prop_parallel_sweep_deterministic; prop_parallel_fraig_deterministic ]
      );
    ]
