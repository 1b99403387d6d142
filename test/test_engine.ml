(* The full simulation-based CEC engine: P/G/L flow, reductions, CEXs,
   phase truncation (Fig. 7 support) and SAT fallback integration. *)

let scaled = Simsweep.Config.scaled

let run ?config ?stop_after ?cancel miter =
  Util.with_pool (fun pool ->
      Simsweep.Engine.run ?config ?stop_after ?cancel ~pool miter)

let test_proves_small_miters () =
  List.iter
    (fun (name, g) ->
      let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
      let r = run m in
      (match r.Simsweep.Engine.outcome with
      | Simsweep.Engine.Proved -> ()
      | _ -> Alcotest.failf "%s: expected proved" name);
      Alcotest.(check (float 0.01)) (name ^ " reduction") 100.
        (Simsweep.Engine.reduction_percent r))
    [
      ("adder", Gen.Arith.adder ~bits:6);
      ("multiplier", Gen.Arith.multiplier ~bits:5);
      ("voter", Gen.Control.voter ~n:9);
      ("regfile", Gen.Control.regfile ~regs:4 ~width:3);
    ]

let test_disproves_with_valid_cex () =
  let g = Gen.Arith.multiplier ~bits:5 in
  let bad = Opt.Resyn.light g in
  Aig.Network.set_po bad 4 (Aig.Lit.neg (Aig.Network.po bad 4));
  let m = Aig.Miter.build g bad in
  let r = run m in
  match r.Simsweep.Engine.outcome with
  | Simsweep.Engine.Disproved (cex, po) ->
      Alcotest.(check bool) "cex sets the miter PO" true (Sim.Cex.check m cex po)
  | _ -> Alcotest.fail "expected disproof"

let test_g_and_l_phases_work () =
  (* Force the flow past the P phase with small thresholds: PO supports
     exceed k_cap_p, so internal sweeping must do the proving. *)
  let g = Gen.Arith.multiplier ~bits:6 in
  let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let cfg =
    {
      scaled with
      Simsweep.Config.k_cap_p = 8;
      k_p = 6;
      k_g = 8;
      max_local_phases = 6;
    }
  in
  let r = run ~config:cfg m in
  let st = r.Simsweep.Engine.stats in
  Alcotest.(check bool) "internal pairs proved" true
    (st.Simsweep.Stats.pairs_proved_global + st.Simsweep.Stats.pairs_proved_local > 0);
  (* Even if not fully proved, the miter must have shrunk substantially. *)
  Alcotest.(check bool) "substantial reduction" true
    (Simsweep.Engine.reduction_percent r > 30.)

let test_stop_after () =
  let g = Gen.Arith.multiplier ~bits:6 in
  let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let cfg = { scaled with Simsweep.Config.k_cap_p = 8; k_p = 6; k_g = 8 } in
  let rp = run ~config:cfg ~stop_after:`P m in
  let rg = run ~config:cfg ~stop_after:`G m in
  let rl = run ~config:cfg m in
  let size r = r.Simsweep.Engine.reduced_size in
  Alcotest.(check bool) "G reduces at least as much as P" true (size rg <= size rp);
  Alcotest.(check bool) "L reduces at least as much as G" true (size rl <= size rg);
  Alcotest.(check bool) "P did not run G" true
    (rp.Simsweep.Engine.stats.Simsweep.Stats.time_g = 0.)

let test_disproof_in_g_phase_refines () =
  (* Random networks disagree on most outputs: the engine must disprove
     them (P phase CEX). *)
  let g1 = Util.random_network ~pis:5 ~nodes:40 ~pos:3 1 in
  let g2 = Util.random_network ~pis:5 ~nodes:40 ~pos:3 2 in
  if not (Util.equivalent_brute g1 g2) then begin
    let m = Aig.Miter.build g1 g2 in
    let r = run m in
    match r.Simsweep.Engine.outcome with
    | Simsweep.Engine.Disproved (cex, po) ->
        Alcotest.(check bool) "valid cex" true (Sim.Cex.check m cex po)
    | _ -> Alcotest.fail "expected disproof"
  end

let test_fallback_combined () =
  (* A deep sqrt-style miter with small thresholds leaves work for SAT. *)
  let g = Gen.Arith.sqrt ~bits:12 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  let cfg = { scaled with Simsweep.Config.k_cap_p = 6; k_p = 4; k_g = 6; max_local_phases = 1 } in
  Util.with_pool (fun pool ->
      let c = Simsweep.Engine.check_with_fallback ~config:cfg ~pool m in
      Alcotest.(check bool) "finally proved" true
        (c.Simsweep.Engine.final = Simsweep.Engine.Proved))

let test_fallback_with_ec_transfer () =
  let g = Gen.Arith.multiplier ~bits:5 in
  let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let cfg = { scaled with Simsweep.Config.k_cap_p = 6; k_p = 4; k_g = 6; max_local_phases = 1 } in
  Util.with_pool (fun pool ->
      let c =
        Simsweep.Engine.check_with_fallback ~config:cfg ~transfer_classes:true
          ~pool m
      in
      Alcotest.(check bool) "proved with transfer" true
        (c.Simsweep.Engine.final = Simsweep.Engine.Proved))

let test_adaptive_passes () =
  (* §V extension: disabling ineffective passes must not change the
     verdict. *)
  let g = Gen.Arith.multiplier ~bits:6 in
  let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let cfg =
    {
      scaled with
      Simsweep.Config.k_cap_p = 8;
      k_p = 6;
      k_g = 8;
      adaptive_passes = true;
    }
  in
  let r = run ~config:cfg m in
  Alcotest.(check bool) "still proved" true
    (r.Simsweep.Engine.outcome = Simsweep.Engine.Proved)

let test_rewrite_between_phases () =
  (* §V extension: interleaved rewriting keeps the flow sound. *)
  let g = Gen.Arith.multiplier ~bits:6 in
  let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let cfg =
    {
      scaled with
      Simsweep.Config.k_cap_p = 8;
      k_p = 6;
      k_g = 8;
      rewrite_between_phases = true;
    }
  in
  let r = run ~config:cfg m in
  Alcotest.(check bool) "proved with interleaved rewriting" true
    (r.Simsweep.Engine.outcome = Simsweep.Engine.Proved)

let prop_rewrite_between_phases_sound =
  QCheck.Test.make ~name:"interleaved rewriting preserves the verdict"
    ~count:10 Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let g1 = Util.random_network ~pis:6 ~nodes:40 ~pos:3 seed in
          let g2 =
            if seed mod 2 = 0 then Opt.Xorflip.run g1
            else Util.random_network ~pis:6 ~nodes:40 ~pos:3 (seed + 5)
          in
          let m = Aig.Miter.build g1 g2 in
          let cfg =
            {
              scaled with
              Simsweep.Config.k_cap_p = 4;
              k_p = 3;
              k_g = 5;
              rewrite_between_phases = true;
              max_local_phases = 3;
            }
          in
          let expect = Util.equivalent_brute g1 g2 in
          let r = Simsweep.Engine.run ~config:cfg ~pool m in
          match r.Simsweep.Engine.outcome with
          | Simsweep.Engine.Proved -> expect
          | Simsweep.Engine.Disproved (cex, po) ->
              (not expect) && Sim.Cex.check m cex po
          | Simsweep.Engine.Undecided ->
              Util.solved_brute r.Simsweep.Engine.reduced = expect))

let test_expired_deadline () =
  (* An already-expired deadline stops the G/L work immediately; the flow
     must still be sound (Undecided with a partially-reduced miter, or
     solved by P). *)
  let g = Gen.Arith.multiplier ~bits:6 in
  let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let cfg =
    { scaled with Simsweep.Config.k_cap_p = 8; k_p = 6; k_g = 8 }
  in
  let r = run ~config:cfg ~cancel:(Par.Cancel.create ~deadline_in:0. ()) m in
  (match r.Simsweep.Engine.outcome with
  | Simsweep.Engine.Undecided | Simsweep.Engine.Proved -> ()
  | Simsweep.Engine.Disproved _ -> Alcotest.fail "miter is equivalent");
  Alcotest.(check bool) "no local phases ran" true
    (r.Simsweep.Engine.stats.Simsweep.Stats.local_phases = 0);
  (* And a generous budget behaves like no budget. *)
  let r2 =
    run ~config:cfg ~cancel:(Par.Cancel.create ~deadline_in:3600. ()) m
  in
  Alcotest.(check bool) "proved within generous budget" true
    (r2.Simsweep.Engine.outcome = Simsweep.Engine.Proved)

let test_stats_timers () =
  let g = Gen.Arith.multiplier ~bits:6 in
  let m = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let cfg = { scaled with Simsweep.Config.k_cap_p = 8; k_p = 6; k_g = 8 } in
  let r = run ~config:cfg m in
  let p, gq, l = Simsweep.Stats.breakdown r.Simsweep.Engine.stats in
  Alcotest.(check (float 1e-6)) "fractions sum to 1" 1. (p +. gq +. l);
  Alcotest.(check bool) "total positive" true
    (Simsweep.Stats.total_time r.Simsweep.Engine.stats > 0.)

let prop_engine_agrees_with_brute =
  QCheck.Test.make ~name:"engine+fallback agrees with brute force" ~count:20
    Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let g1 = Util.random_network ~pis:6 ~nodes:40 ~pos:3 seed in
          let g2 =
            if seed mod 2 = 0 then Opt.Resyn.light g1
            else Util.random_network ~pis:6 ~nodes:40 ~pos:3 (seed + 13)
          in
          let m = Aig.Miter.build g1 g2 in
          let expect = Util.equivalent_brute g1 g2 in
          let c = Simsweep.Engine.check_with_fallback ~pool m in
          match c.Simsweep.Engine.final with
          | Simsweep.Engine.Proved -> expect
          | Simsweep.Engine.Disproved (cex, po) ->
              (not expect) && Sim.Cex.check m cex po
          | Simsweep.Engine.Undecided -> false))

let prop_reduction_sound =
  QCheck.Test.make ~name:"reduced miter is equi-satisfiable" ~count:15
    Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let g1 = Util.random_network ~pis:6 ~nodes:50 ~pos:3 seed in
          let g2 = Opt.Xorflip.run g1 in
          let m = Aig.Miter.build g1 g2 in
          let cfg =
            { scaled with Simsweep.Config.k_cap_p = 4; k_p = 3; k_g = 5; max_local_phases = 1 }
          in
          let r = Simsweep.Engine.run ~config:cfg ~pool m in
          match r.Simsweep.Engine.outcome with
          | Simsweep.Engine.Proved -> Util.solved_brute m
          | Simsweep.Engine.Disproved _ -> not (Util.solved_brute m)
          | Simsweep.Engine.Undecided ->
              (* The reduced miter must be solved iff the original is. *)
              Util.solved_brute m = Util.solved_brute r.Simsweep.Engine.reduced))

let () =
  Alcotest.run "engine"
    [
      ( "unit",
        [
          Alcotest.test_case "proves small miters" `Quick test_proves_small_miters;
          Alcotest.test_case "disproves with cex" `Quick test_disproves_with_valid_cex;
          Alcotest.test_case "G/L phases" `Quick test_g_and_l_phases_work;
          Alcotest.test_case "stop_after" `Quick test_stop_after;
          Alcotest.test_case "disproof via refinement" `Quick test_disproof_in_g_phase_refines;
          Alcotest.test_case "fallback" `Quick test_fallback_combined;
          Alcotest.test_case "fallback with EC transfer" `Quick test_fallback_with_ec_transfer;
          Alcotest.test_case "stats timers" `Quick test_stats_timers;
          Alcotest.test_case "adaptive passes" `Quick test_adaptive_passes;
          Alcotest.test_case "rewrite between phases" `Quick test_rewrite_between_phases;
          Alcotest.test_case "time limit" `Quick test_expired_deadline;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_agrees_with_brute;
            prop_reduction_sound;
            prop_rewrite_between_phases_sound;
          ] );
    ]
