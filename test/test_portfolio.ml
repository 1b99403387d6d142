(* Portfolio checker (Conformal stand-in): engine selection and
   correctness. *)

let check ?bdd_node_limit ?bdd_step_limit ?mode m =
  Util.with_pool (fun pool ->
      Simsweep.Portfolio.check ?bdd_node_limit ?bdd_step_limit ?mode ~pool m)

let test_bdd_wins_on_voter () =
  (* Symmetric control logic: the BDD engine should answer first — the
     Table II crossover where Conformal beats the GPU engine on voter. *)
  let g = Gen.Control.voter ~n:15 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  let r = check m in
  Alcotest.(check bool) "proved" true (r.Simsweep.Portfolio.outcome = Simsweep.Engine.Proved);
  match r.Simsweep.Portfolio.winner with
  | Some Simsweep.Portfolio.Bdd_engine -> ()
  | w ->
      Alcotest.failf "expected bdd winner, got %s"
        (match w with Some e -> Simsweep.Portfolio.engine_name e | None -> "none")

let test_sim_engine_on_multiplier () =
  (* Multipliers blow the BDD budget; the simulation engine takes over. *)
  let g = Gen.Arith.multiplier ~bits:6 in
  let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let r = check ~bdd_node_limit:1000 m in
  Alcotest.(check bool) "proved" true (r.Simsweep.Portfolio.outcome = Simsweep.Engine.Proved);
  match r.Simsweep.Portfolio.winner with
  | Some Simsweep.Portfolio.Sim_engine | Some Simsweep.Portfolio.Sat_engine -> ()
  | _ -> Alcotest.fail "expected a non-bdd winner"

let test_disproof () =
  let g = Gen.Arith.adder ~bits:5 in
  let bad = Aig.Network.copy g in
  Aig.Network.set_po bad 2 (Aig.Lit.neg (Aig.Network.po bad 2));
  let m = Aig.Miter.build g bad in
  let r = check m in
  match r.Simsweep.Portfolio.outcome with
  | Simsweep.Engine.Disproved (cex, po) ->
      Alcotest.(check bool) "cex valid" true (Sim.Cex.check m cex po)
  | _ -> Alcotest.fail "expected disproof"

let test_engine_names () =
  Alcotest.(check string) "bdd" "bdd" (Simsweep.Portfolio.engine_name Simsweep.Portfolio.Bdd_engine);
  Alcotest.(check string) "sim" "sim" (Simsweep.Portfolio.engine_name Simsweep.Portfolio.Sim_engine);
  Alcotest.(check string) "sat" "sat" (Simsweep.Portfolio.engine_name Simsweep.Portfolio.Sat_engine)

(* Telemetry presence invariants: which stats ride along is determined by
   which engine produced the answer (BDD runs first and carries no
   engine/sat telemetry; the SAT fallback only reports when it ran). *)
let check_stats_invariants r =
  let open Simsweep.Portfolio in
  match r.winner with
  | Some Bdd_engine ->
      Alcotest.(check bool) "bdd: no engine stats" true (r.engine_stats = None);
      Alcotest.(check bool) "bdd: no sat stats" true (r.sat_stats = None)
  | Some Sim_engine ->
      Alcotest.(check bool) "sim: engine stats present" true (r.engine_stats <> None);
      Alcotest.(check bool) "sim: no sat stats" true (r.sat_stats = None)
  | Some Sat_engine ->
      Alcotest.(check bool) "sat: engine stats present" true (r.engine_stats <> None);
      Alcotest.(check bool) "sat: sat stats present" true (r.sat_stats <> None)
  | None ->
      Alcotest.(check bool) "undecided: engine stats present" true
        (r.engine_stats <> None)

let test_winner_outcome_agreement_proved () =
  (* A conclusive outcome always names a winner; Undecided never does. *)
  let g = Gen.Arith.adder ~bits:5 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  let r = check m in
  Alcotest.(check bool) "proved" true (r.Simsweep.Portfolio.outcome = Simsweep.Engine.Proved);
  Alcotest.(check bool) "winner named" true (r.Simsweep.Portfolio.winner <> None);
  Alcotest.(check bool) "time recorded" true (r.Simsweep.Portfolio.time >= 0.0);
  check_stats_invariants r

let test_winner_outcome_agreement_disproved () =
  let g = Gen.Arith.multiplier ~bits:4 in
  let bad = Aig.Network.copy g in
  Aig.Network.set_po bad 0 (Aig.Lit.neg (Aig.Network.po bad 0));
  let m = Aig.Miter.build g bad in
  let r = check m in
  (match r.Simsweep.Portfolio.outcome with
  | Simsweep.Engine.Disproved (cex, po) ->
      Alcotest.(check bool) "cex replays" true (Sim.Cex.check m cex po)
  | _ -> Alcotest.fail "expected disproof");
  Alcotest.(check bool) "winner named" true (r.Simsweep.Portfolio.winner <> None);
  check_stats_invariants r

let test_bdd_budget_blowup_falls_through () =
  (* A one-node BDD budget blows up on anything non-trivial: the portfolio
     must still answer, via the sim engine or the SAT fallback, and must
     carry their telemetry. *)
  let g = Gen.Arith.multiplier ~bits:5 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  let r = check ~bdd_node_limit:1 m in
  Alcotest.(check bool) "proved" true (r.Simsweep.Portfolio.outcome = Simsweep.Engine.Proved);
  (match r.Simsweep.Portfolio.winner with
  | Some Simsweep.Portfolio.Bdd_engine -> Alcotest.fail "bdd cannot win under a 1-node budget"
  | Some _ -> ()
  | None -> Alcotest.fail "expected a winner");
  Alcotest.(check bool) "engine stats present after blowup" true
    (r.Simsweep.Portfolio.engine_stats <> None);
  check_stats_invariants r

let test_bdd_budget_blowup_disproof () =
  let g = Gen.Arith.multiplier ~bits:4 in
  let bad = Aig.Network.copy g in
  Aig.Network.set_po bad 1 (Aig.Lit.neg (Aig.Network.po bad 1));
  let m = Aig.Miter.build g bad in
  let r = check ~bdd_node_limit:1 m in
  (match r.Simsweep.Portfolio.outcome with
  | Simsweep.Engine.Disproved (cex, po) ->
      Alcotest.(check bool) "cex replays" true (Sim.Cex.check m cex po)
  | _ -> Alcotest.fail "expected disproof");
  check_stats_invariants r

let test_sequential_result_fields () =
  (* The winner's wall-clock is reported and the BDD ran within its step
     budget. *)
  let g = Gen.Arith.adder ~bits:5 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  let r = check ~mode:`Sequential m in
  let open Simsweep.Portfolio in
  Alcotest.(check bool) "no bdd timeout" false r.bdd_timeout;
  Alcotest.(check bool) "per-engine times recorded" true (r.per_engine_time <> []);
  List.iter
    (fun (_, t) -> Alcotest.(check bool) "time non-negative" true (t >= 0.0))
    r.per_engine_time;
  match r.winner with
  | Some w ->
      Alcotest.(check bool) "winner has a time" true
        (List.mem_assoc w r.per_engine_time)
  | None -> Alcotest.fail "expected a winner"

let test_bdd_step_budget_timeout () =
  (* A 1-step BDD budget: the run must fall through to another engine and
     flag the timeout (distinct from a node-budget blow-up). *)
  let g = Gen.Arith.multiplier ~bits:4 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  let r = check ~bdd_step_limit:1 m in
  let open Simsweep.Portfolio in
  Alcotest.(check bool) "proved" true (r.outcome = Simsweep.Engine.Proved);
  Alcotest.(check bool) "bdd timeout flagged" true r.bdd_timeout;
  (match r.winner with
  | Some Bdd_engine -> Alcotest.fail "bdd cannot win under a 1-step budget"
  | Some _ -> ()
  | None -> Alcotest.fail "expected a winner");
  check_stats_invariants r

let prop_stats_invariants =
  QCheck.Test.make ~name:"stats presence matches winner" ~count:12 Util.arb_seed
    (fun seed ->
      let g1 = Util.random_network ~pis:5 ~nodes:40 ~pos:3 seed in
      let g2 =
        if seed mod 2 = 0 then Opt.Resyn.light g1
        else Util.random_network ~pis:5 ~nodes:40 ~pos:3 (seed + 9)
      in
      let r = check ~bdd_node_limit:(if seed mod 3 = 0 then 1 else 1 lsl 20)
          (Aig.Miter.build g1 g2) in
      check_stats_invariants r;
      (match r.Simsweep.Portfolio.outcome with
      | Simsweep.Engine.Proved | Simsweep.Engine.Disproved _ ->
          r.Simsweep.Portfolio.winner <> None
      | Simsweep.Engine.Undecided -> r.Simsweep.Portfolio.winner = None))

let prop_agrees_with_brute =
  QCheck.Test.make ~name:"portfolio agrees with brute force" ~count:15
    Util.arb_seed (fun seed ->
      let g1 = Util.random_network ~pis:5 ~nodes:35 ~pos:3 seed in
      let g2 =
        if seed mod 2 = 0 then Opt.Xorflip.run g1
        else Util.random_network ~pis:5 ~nodes:35 ~pos:3 (seed + 3)
      in
      let m = Aig.Miter.build g1 g2 in
      let expect = Util.equivalent_brute g1 g2 in
      let r = check m in
      match r.Simsweep.Portfolio.outcome with
      | Simsweep.Engine.Proved -> expect
      | Simsweep.Engine.Disproved (cex, po) -> (not expect) && Sim.Cex.check m cex po
      | Simsweep.Engine.Undecided -> false)

let () =
  Alcotest.run "portfolio"
    [
      ( "unit",
        [
          Alcotest.test_case "bdd wins voter" `Quick test_bdd_wins_on_voter;
          Alcotest.test_case "sim engine on multiplier" `Quick test_sim_engine_on_multiplier;
          Alcotest.test_case "disproof" `Quick test_disproof;
          Alcotest.test_case "names" `Quick test_engine_names;
          Alcotest.test_case "proved agreement" `Quick test_winner_outcome_agreement_proved;
          Alcotest.test_case "disproved agreement" `Quick
            test_winner_outcome_agreement_disproved;
          Alcotest.test_case "bdd blowup proof" `Quick test_bdd_budget_blowup_falls_through;
          Alcotest.test_case "bdd blowup disproof" `Quick test_bdd_budget_blowup_disproof;
          Alcotest.test_case "sequential result fields" `Quick
            test_sequential_result_fields;
          Alcotest.test_case "bdd step budget" `Quick test_bdd_step_budget_timeout;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_agrees_with_brute; prop_stats_invariants ] );
    ]
