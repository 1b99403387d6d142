(* Cooperative cancellation: token semantics, pre-set tokens unwinding
   every engine, and the deterministic parallel SAT-sweeping schedule. *)

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
  (* The portfolio threads the request token into each member engine. *)
  Util.with_pool @@ fun pool ->
  let r = Simsweep.Portfolio.check ~cancel:(preset ()) ~pool (hard_miter ()) in
  Alcotest.(check bool) "portfolio -> Undecided" true
    (r.Simsweep.Portfolio.outcome = Simsweep.Engine.Undecided);
  Alcotest.(check bool) "no winner" true (r.Simsweep.Portfolio.winner = None)

let test_partition_preset () =
  Util.with_pool @@ fun pool ->
  match
    Shell.Engines.run ~cancel:(preset ()) ~pool Shell.Engines.Partitioned
      (hard_miter ())
  with
  | Ok r ->
      Alcotest.(check bool) "partition -> Undecided" true
        (r.Shell.Engines.outcome = Simsweep.Engine.Undecided)
  | Error e -> Alcotest.fail e

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
    s.rounds, s.cex_count, s.candidates, s.conflicts,
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
          Alcotest.test_case "partition" `Quick test_partition_preset;
          Alcotest.test_case "certificate" `Quick test_certificate_preset;
          Alcotest.test_case "engine deadline" `Quick test_engine_deadline_token;
        ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest
          [ prop_parallel_sweep_deterministic; prop_parallel_fraig_deterministic ]
      );
    ]
