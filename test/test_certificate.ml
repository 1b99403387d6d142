(* Proof certificates: generation, independent SAT validation and tamper
   detection. *)

let gen_cert ?config miter =
  Util.with_pool (fun pool -> Simsweep.Certificate.generate ?config ~pool miter)

let forced_internal_config =
  (* Push the flow through G and L so certificates contain real merge
     steps, not just a one-shot P proof. *)
  {
    Simsweep.Config.scaled with
    Simsweep.Config.k_cap_p = 8;
    k_p = 6;
    k_g = 8;
  }

let test_generate_and_validate () =
  let g = Gen.Arith.multiplier ~bits:6 in
  let miter = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let result, cert = gen_cert ~config:forced_internal_config miter in
  Alcotest.(check bool) "engine proved" true
    (result.Simsweep.Engine.outcome = Simsweep.Engine.Proved);
  Alcotest.(check bool) "claims proof" true cert.Simsweep.Certificate.claims_proved;
  Alcotest.(check bool) "has merge steps" true
    (List.exists
       (fun (s : Simsweep.Engine.trace_step) -> s.Simsweep.Engine.trace_merges <> [])
       cert.Simsweep.Certificate.steps);
  match Simsweep.Certificate.validate miter cert with
  | Ok final -> Alcotest.(check bool) "replayed to solved" true (Aig.Miter.solved final)
  | Error e -> Alcotest.failf "validation failed: %s" e

(* Replaying a trace with [Engine.apply_step] rebuilds the engine's own
   miter, byte for byte, whichever phase the flow stops after. *)
let test_replay_rebuilds_reduced () =
  Util.with_pool @@ fun pool ->
  List.iter
    (fun (name, g) ->
      let miter = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
      List.iter
        (fun (stop_name, stop_after) ->
          let steps = ref [] in
          let r =
            Simsweep.Engine.run ~config:forced_internal_config ?stop_after
              ~trace:(fun s -> steps := s :: !steps)
              ~pool miter
          in
          let cert =
            { Simsweep.Certificate.steps = List.rev !steps; claims_proved = false }
          in
          match Simsweep.Certificate.validate miter cert with
          | Ok replayed ->
              Alcotest.(check string)
                (Printf.sprintf "%s, stop after %s" name stop_name)
                (Aig.Aiger_io.to_binary_string r.Simsweep.Engine.reduced)
                (Aig.Aiger_io.to_binary_string replayed)
          | Error e -> Alcotest.failf "%s, stop after %s: %s" name stop_name e)
        [ ("P", Some `P); ("G", Some `G); ("L", None) ])
    [
      ("multiplier6", Gen.Arith.multiplier ~bits:6);
      ("sqrt12", Gen.Arith.sqrt ~bits:12);
      ("hypot6", Gen.Arith.hypot ~bits:6);
    ]

let test_po_step_validates () =
  (* A P-phase-only certificate (wide thresholds). *)
  let g = Gen.Arith.adder ~bits:6 in
  let miter = Aig.Miter.build g (Opt.Resyn.light g) in
  let _, cert = gen_cert miter in
  Alcotest.(check bool) "P step present" true
    (List.exists
       (fun (s : Simsweep.Engine.trace_step) -> s.Simsweep.Engine.trace_pos <> [])
       cert.Simsweep.Certificate.steps);
  match Simsweep.Certificate.validate miter cert with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "validation failed: %s" e

let test_tampered_certificate_rejected () =
  let g = Gen.Arith.multiplier ~bits:6 in
  let miter = Aig.Miter.build g (Opt.Resyn.resyn2 g) in
  let _, cert = gen_cert ~config:forced_internal_config miter in
  (* Corrupt the first merge: point a node at the complement of its
     representative. *)
  let tampered_steps =
    List.map
      (fun (s : Simsweep.Engine.trace_step) ->
        match s.Simsweep.Engine.trace_merges with
        | (n, l) :: rest ->
            { s with Simsweep.Engine.trace_merges = (n, Aig.Lit.neg l) :: rest }
        | [] -> s)
      cert.Simsweep.Certificate.steps
  in
  let tampered = { cert with Simsweep.Certificate.steps = tampered_steps } in
  match Simsweep.Certificate.validate miter tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered certificate accepted"

let test_wrong_claim_rejected () =
  (* An empty certificate claiming a proof of a non-trivial miter. *)
  let g = Gen.Arith.multiplier ~bits:5 in
  let miter = Aig.Miter.build g (Opt.Xorflip.run g) in
  let fake = { Simsweep.Certificate.steps = []; claims_proved = true } in
  match Simsweep.Certificate.validate miter fake with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fake claim accepted"

let test_certify () =
  Util.with_pool @@ fun pool ->
  let g = Gen.Arith.adder ~bits:6 in
  let miter = Aig.Miter.build g (Opt.Resyn.light g) in
  (match Simsweep.Certificate.certify ~pool miter with
  | Simsweep.Engine.Proved, Simsweep.Certificate.Validated steps ->
      Alcotest.(check bool) "has steps" true (steps > 0)
  | _ -> Alcotest.fail "proved miter not validated");
  (* An inverted output: the engine disproves, so there is no proof to
     certify. *)
  let bad = Aig.Network.copy g in
  Aig.Network.set_po bad 0 (Aig.Lit.neg (Aig.Network.po bad 0));
  match Simsweep.Certificate.certify ~pool (Aig.Miter.build g bad) with
  | Simsweep.Engine.Disproved _, Simsweep.Certificate.Incomplete -> ()
  | _ -> Alcotest.fail "disproved miter not reported incomplete"

let prop_certificates_validate =
  QCheck.Test.make ~name:"generated certificates always validate" ~count:12
    Util.arb_seed (fun seed ->
      let g1 = Util.random_network ~pis:6 ~nodes:50 ~pos:3 seed in
      let miter = Aig.Miter.build g1 (Opt.Xorflip.run g1) in
      let cfg =
        { forced_internal_config with Simsweep.Config.k_cap_p = 5; k_p = 4; k_g = 6 }
      in
      let _, cert = gen_cert ~config:cfg miter in
      match Simsweep.Certificate.validate miter cert with
      | Ok _ -> true
      | Error _ -> false)

let () =
  Alcotest.run "certificate"
    [
      ( "unit",
        [
          Alcotest.test_case "generate+validate" `Quick test_generate_and_validate;
          Alcotest.test_case "po steps" `Quick test_po_step_validates;
          Alcotest.test_case "tamper detection" `Quick test_tampered_certificate_rejected;
          Alcotest.test_case "wrong claim" `Quick test_wrong_claim_rejected;
          Alcotest.test_case "certify" `Quick test_certify;
          Alcotest.test_case "replay rebuilds the reduced miter" `Quick
            test_replay_rebuilds_reduced;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_certificates_validate ]);
    ]
