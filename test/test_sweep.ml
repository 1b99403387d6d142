(* SAT sweeping CEC baseline: CNF encoding and the full sweeping flow. *)

let test_cnf_encoding () =
  let g = Gen.Arith.adder ~bits:3 in
  let s = Sat.Solver.create () in
  Alcotest.(check bool) "loaded" true (Sat.Cnf.load s g);
  (* Force an input assignment with assumptions and check the outputs:
     5 + 6 = 11 = 1011. *)
  let asm = ref [] in
  let a = 5 and b = 6 in
  for i = 0 to 2 do
    asm := Sat.Solver.mklit (Aig.Network.pi g i) ((a lsr i) land 1 = 0) :: !asm;
    asm := Sat.Solver.mklit (Aig.Network.pi g (3 + i)) ((b lsr i) land 1 = 0) :: !asm
  done;
  (match Sat.Solver.solve ~assumptions:!asm s with
  | Sat.Solver.Sat -> ()
  | _ -> Alcotest.fail "circuit CNF must be satisfiable");
  for i = 0 to 3 do
    let lit = Aig.Network.po g i in
    let v =
      Sat.Solver.model_value s (Aig.Lit.node lit) <> Aig.Lit.is_compl lit
    in
    Alcotest.(check bool) (Printf.sprintf "sum bit %d" i) ((11 lsr i) land 1 = 1) v
  done

let check_case name g1 g2 expect_eq =
  Util.with_pool (fun pool ->
      let miter = Aig.Miter.build g1 g2 in
      let outcome, _ = Sat.Sweep.check ~pool miter in
      match (outcome, expect_eq) with
      | Sat.Sweep.Equivalent, true -> ()
      | Sat.Sweep.Inequivalent (cex, po), false ->
          Alcotest.(check bool)
            (name ^ ": cex validates") true
            (Sim.Cex.check miter cex po)
      | Sat.Sweep.Equivalent, false -> Alcotest.failf "%s: wrongly proved" name
      | Sat.Sweep.Inequivalent _, true -> Alcotest.failf "%s: wrongly disproved" name
      | Sat.Sweep.Undecided, _ -> Alcotest.failf "%s: undecided" name)

let test_equivalent_opt () =
  let g = Gen.Arith.multiplier ~bits:4 in
  check_case "multiplier vs resyn2" g (Opt.Resyn.resyn2 g) true

let test_inequivalent () =
  let g = Gen.Arith.adder ~bits:3 in
  let bad = Aig.Network.copy g in
  Aig.Network.set_po bad 1 (Aig.Lit.neg (Aig.Network.po bad 1));
  check_case "adder vs broken adder" g bad false

let test_subtle_inequivalence () =
  (* Two circuits differing on exactly one input pattern: random partial
     simulation alone cannot prove it; SAT must find the pattern. *)
  let mk flip =
    let g = Aig.Network.create () in
    let xs = Array.init 8 (fun _ -> Aig.Network.add_pi g) in
    let conj =
      Array.fold_left (fun acc x -> Aig.Network.add_and g acc x) Aig.Lit.const_true xs
    in
    let extra = if flip then conj else Aig.Lit.const_false in
    (* xs.(0) & !xs.(1) is not implied by the conjunction, so the two
       variants differ exactly on the all-ones assignment. *)
    Aig.Network.add_po g
      (Aig.Network.add_or g extra
         (Aig.Network.add_and g xs.(0) (Aig.Lit.neg xs.(1))));
    g
  in
  check_case "single-minterm difference" (mk false) (mk true) false

let test_ec_transfer () =
  Util.with_pool (fun pool ->
      (* Classes computed by the engine are accepted and used. *)
      let g = Gen.Arith.multiplier ~bits:4 in
      let miter = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
      let rng = Sim.Rng.create ~seed:5L in
      let sigs = Sim.Psim.run miter ~nwords:4 ~rng ~pool ~embed:[] in
      let classes = Sim.Eclass.of_sigs miter sigs () in
      let outcome, stats = Sat.Sweep.check ~classes ~pool miter in
      Alcotest.(check bool) "equivalent" true (outcome = Sat.Sweep.Equivalent);
      Alcotest.(check bool) "did work" true (stats.Sat.Sweep.sat_calls > 0))

let test_check_direct () =
  let g = Gen.Arith.adder ~bits:4 in
  let m_eq = Aig.Miter.build g (Opt.Xorflip.run g) in
  Alcotest.(check bool) "direct equivalent" true
    (Sat.Sweep.check_direct m_eq = Sat.Sweep.Equivalent);
  let bad = Aig.Network.copy g in
  Aig.Network.set_po bad 0 (Aig.Lit.neg (Aig.Network.po bad 0));
  (match Sat.Sweep.check_direct (Aig.Miter.build g bad) with
  | Sat.Sweep.Inequivalent _ -> ()
  | _ -> Alcotest.fail "expected inequivalent")

let test_fraig_reduces_redundancy () =
  Util.with_pool (fun pool ->
      (* Two structurally different xor decompositions of the same signals
         inside one network: fraig must merge them. *)
      let g = Aig.Network.create () in
      let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
      let x1 = Aig.Network.add_xor g a b in
      let u = Aig.Network.add_and g a (Aig.Lit.neg b) in
      let v = Aig.Network.add_and g (Aig.Lit.neg a) b in
      let x2 = Aig.Lit.neg (Aig.Network.add_and g (Aig.Lit.neg u) (Aig.Lit.neg v)) in
      Aig.Network.add_po g (Aig.Network.add_and g x1 a);
      Aig.Network.add_po g (Aig.Network.add_and g x2 b);
      let before = Aig.Network.num_ands g in
      let g', stats = Sat.Sweep.fraig ~pool g in
      Alcotest.(check bool) "merged something" true (stats.Sat.Sweep.merged > 0);
      Alcotest.(check bool) "shrank" true (Aig.Network.num_ands g' < before);
      Alcotest.(check bool) "function preserved" true (Util.equivalent_brute g g'))

let prop_fraig_sound =
  QCheck.Test.make ~name:"fraig preserves function and never grows" ~count:25
    Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let g = Util.random_network ~pis:6 ~nodes:80 ~pos:4 seed in
          let g', _ = Sat.Sweep.fraig ~pool g in
          Aig.Network.num_ands g' <= Aig.Network.num_ands g
          && Util.equivalent_brute g g'))

let prop_fraig_idempotent_size =
  QCheck.Test.make ~name:"fraiging twice does not shrink further much" ~count:10
    Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let g = Util.random_network ~pis:6 ~nodes:80 ~pos:4 seed in
          let g1, _ = Sat.Sweep.fraig ~pool g in
          let g2, _ = Sat.Sweep.fraig ~pool g1 in
          (* A second pass may catch pairs the CEX budget postponed, but the
             result must already be near the fixed point. *)
          Aig.Network.num_ands g2 <= Aig.Network.num_ands g1))

let test_cancelled_before_start () =
  (* A token expired before the check starts must stop the round loop
     before any SAT work: no solver loaded, no SAT calls made. *)
  Util.with_pool (fun pool ->
      let g = Util.random_network ~pis:6 ~nodes:60 ~pos:4 3 in
      let miter = Aig.Miter.build g (Opt.Balance.run (Opt.Xorflip.run g)) in
      let cancel = Par.Cancel.create ~deadline_in:0.0 () in
      let outcome, stats = Sat.Sweep.check ~cancel ~pool miter in
      Alcotest.(check bool) "undecided" true (outcome = Sat.Sweep.Undecided);
      Alcotest.(check int) "no cnf loads" 0 stats.Sat.Sweep.cnf_loads;
      Alcotest.(check int) "no sat calls" 0 stats.Sat.Sweep.sat_calls)

let prop_random_equivalence =
  QCheck.Test.make ~name:"sweep agrees with brute force" ~count:30 Util.arb_seed
    (fun seed ->
      Util.with_pool (fun pool ->
          let g1 = Util.random_network ~pis:6 ~nodes:40 ~pos:3 seed in
          let g2 = Util.random_network ~pis:6 ~nodes:40 ~pos:3 (seed + 1) in
          let miter = Aig.Miter.build g1 g2 in
          let expect = Util.equivalent_brute g1 g2 in
          match Sat.Sweep.check ~pool miter with
          | Sat.Sweep.Equivalent, _ -> expect
          | Sat.Sweep.Inequivalent (cex, po), _ ->
              (not expect) && Sim.Cex.check miter cex po
          | Sat.Sweep.Undecided, _ -> false))

let prop_optimized_equivalence =
  QCheck.Test.make ~name:"sweep proves xorflip+balance miters" ~count:15
    Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let g = Util.random_network ~pis:6 ~nodes:60 ~pos:4 seed in
          let opt = Opt.Balance.run (Opt.Xorflip.run g) in
          let miter = Aig.Miter.build g opt in
          fst (Sat.Sweep.check ~pool miter) = Sat.Sweep.Equivalent))

(* The sweep's work, pinned on three small generated miters: a change that
   claims to leave the sweeping path's work alone must keep (outcome, SAT
   calls, merges, rounds) as they are, and one that claims to leave the
   SAT search alone must also keep its conflicts and propagations.  voter
   is control logic proved in one round of pairs; log2 needs
   counter-examples to split its classes; the third miter has one
   complemented AND fanin on its optimised side. *)
let test_work_counters () =
  let broken =
    let g = Gen.Arith.multiplier ~bits:6 in
    let opt = Opt.Resyn.resyn2 g in
    let node = Aig.Network.num_nodes opt - 1 in
    Aig.Miter.build g
      (Fuzz.Mutate.apply opt (Fuzz.Mutate.Flip_fanin { node; right = false }))
  in
  let suite name = (Gen.Suite.build ~scale:0 name).Gen.Suite.miter in
  Util.with_pool (fun pool ->
      List.iter
        (fun (name, miter, expected) ->
          let outcome, s = Sat.Sweep.check ~pool miter in
          let verdict =
            match outcome with
            | Sat.Sweep.Equivalent -> "equivalent"
            | Sat.Sweep.Inequivalent (_, po) -> Printf.sprintf "inequivalent@%d" po
            | Sat.Sweep.Undecided -> "undecided"
          in
          Alcotest.(check (pair string (list int)))
            (name ^ ": outcome, SAT calls, merged, rounds, conflicts, propagations")
            expected
            ( verdict,
              [ s.Sat.Sweep.sat_calls; s.merged; s.rounds; s.conflicts; s.propagations ] ))
        [
          ("voter", suite "voter", ("equivalent", [ 252; 130; 2; 295; 10609 ]));
          ("log2", suite "log2", ("equivalent", [ 765; 363; 2; 1644; 494631 ]));
          ( "multiplier6~flip",
            broken,
            ("inequivalent@11", [ 339; 174; 2; 450; 19521 ]) );
        ])

let () =
  Alcotest.run "sweep"
    [
      ( "unit",
        [
          Alcotest.test_case "cnf encoding" `Quick test_cnf_encoding;
          Alcotest.test_case "equivalent optimized" `Quick test_equivalent_opt;
          Alcotest.test_case "inequivalent" `Quick test_inequivalent;
          Alcotest.test_case "subtle inequivalence" `Quick test_subtle_inequivalence;
          Alcotest.test_case "ec transfer" `Quick test_ec_transfer;
          Alcotest.test_case "check direct" `Quick test_check_direct;
          Alcotest.test_case "fraig reduces" `Quick test_fraig_reduces_redundancy;
          Alcotest.test_case "sweep work counters" `Quick test_work_counters;
          Alcotest.test_case "cancelled before start" `Quick
            test_cancelled_before_start;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_equivalence;
            prop_optimized_equivalence;
            prop_fraig_sound;
            prop_fraig_idempotent_size;
          ] );
    ]
