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

let test_reverse_sim_splits () =
  Util.with_pool (fun pool ->
      (* A miter with spuriously-matching classes: reverse simulation must
         disprove some candidate pairs without SAT calls. *)
      let g1 = Util.random_network ~pis:8 ~nodes:120 ~pos:4 5 in
      let g2 = Util.random_network ~pis:8 ~nodes:120 ~pos:4 6 in
      let miter = Aig.Miter.build g1 g2 in
      let config =
        { Sat.Sweep.default_config with Sat.Sweep.use_reverse_sim = true; sim_words = 1 }
      in
      let outcome, stats = Sat.Sweep.check ~config ~pool miter in
      (* The verdict must match the plain configuration... *)
      let outcome', _ = Sat.Sweep.check ~pool (Aig.Miter.build g1 g2) in
      let same =
        match (outcome, outcome') with
        | Sat.Sweep.Equivalent, Sat.Sweep.Equivalent -> true
        | Sat.Sweep.Inequivalent _, Sat.Sweep.Inequivalent _ -> true
        | Sat.Sweep.Undecided, Sat.Sweep.Undecided -> true
        | _ -> false
      in
      Alcotest.(check bool) "same verdict" true same;
      Alcotest.(check bool) "stat present" true (stats.Sat.Sweep.rsim_splits >= 0))

let prop_reverse_sim_sound =
  QCheck.Test.make ~name:"reverse-sim sweeping agrees with brute force"
    ~count:20 Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let g1 = Util.random_network ~pis:6 ~nodes:40 ~pos:3 seed in
          let g2 =
            if seed mod 2 = 0 then Opt.Xorflip.run g1
            else Util.random_network ~pis:6 ~nodes:40 ~pos:3 (seed + 9)
          in
          let miter = Aig.Miter.build g1 g2 in
          let config =
            { Sat.Sweep.default_config with Sat.Sweep.use_reverse_sim = true }
          in
          let expect = Util.equivalent_brute g1 g2 in
          match Sat.Sweep.check ~config ~pool miter with
          | Sat.Sweep.Equivalent, _ -> expect
          | Sat.Sweep.Inequivalent (cex, po), _ ->
              (not expect) && Sim.Cex.check miter cex po
          | Sat.Sweep.Undecided, _ -> false))

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
          Alcotest.test_case "reverse-sim splits" `Quick test_reverse_sim_splits;
          Alcotest.test_case "fraig reduces" `Quick test_fraig_reduces_redundancy;
          Alcotest.test_case "cancelled before start" `Quick
            test_cancelled_before_start;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_equivalence;
            prop_optimized_equivalence;
            prop_reverse_sim_sound;
            prop_fraig_sound;
            prop_fraig_idempotent_size;
          ] );
    ]
