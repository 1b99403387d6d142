(* Differential fuzzing subsystem: surgery edits, brute oracle, fault
   injection, case generation determinism, oracle failure detection,
   shrinking, and the end-to-end self-test. *)

let prop_brute_matches_reference =
  QCheck.Test.make ~name:"brute check_miter matches reference brute force" ~count:40
    Util.arb_seed (fun seed ->
      let g1 = Util.random_network ~pis:6 ~nodes:40 ~pos:3 seed in
      let g2 =
        if seed mod 3 = 0 then Opt.Xorflip.run g1
        else Util.random_network ~pis:6 ~nodes:40 ~pos:3 (seed + 11)
      in
      let m = Aig.Miter.build g1 g2 in
      match Fuzz.Brute.check_miter m with
      | `Equivalent -> Util.solved_brute m
      | `Inequivalent (cex, po) -> (not (Util.solved_brute m)) && Sim.Cex.check m cex po)

let prop_brute_equivalent =
  QCheck.Test.make ~name:"brute equivalent matches reference" ~count:40 Util.arb_seed
    (fun seed ->
      let g1 = Util.random_network ~pis:5 ~nodes:30 ~pos:4 seed in
      let g2 =
        if seed mod 2 = 0 then Opt.Rewrite.run g1
        else Util.random_network ~pis:5 ~nodes:30 ~pos:4 (seed + 7)
      in
      Fuzz.Brute.equivalent g1 g2 = Util.equivalent_brute g1 g2)

let test_surgery_substitute () =
  (* Forwarding a node to constant false must equal evaluating the
     network with that node's function forced to 0. *)
  let g = Util.random_network ~pis:5 ~nodes:30 ~pos:2 42 in
  let some_and = ref (-1) in
  Aig.Network.iter_ands g (fun n -> if !some_and < 0 then some_and := n);
  let h = Fuzz.Surgery.substitute g ~node:!some_and ~by:Aig.Lit.const_false in
  Alcotest.(check (result unit string)) "well-formed" (Ok ()) (Aig.Network.check h);
  Alcotest.(check int) "pis preserved" (Aig.Network.num_pis g) (Aig.Network.num_pis h);
  Alcotest.(check int) "pos preserved" (Aig.Network.num_pos g) (Aig.Network.num_pos h)

let test_surgery_identity () =
  let g = Util.random_network ~pis:6 ~nodes:50 ~pos:4 7 in
  let h = Fuzz.Surgery.rewrite g ~edit_of:(fun _ -> Fuzz.Surgery.Keep) in
  Alcotest.(check bool) "identity rewrite equivalent" true (Util.equivalent_brute g h)

(* The shrinker's one-PO cut, through [Aig.Cone.restrict]. *)
let test_surgery_restrict () =
  let g = Util.random_network ~pis:6 ~nodes:50 ~pos:4 19 in
  let h, _ = Aig.Cone.restrict g [ 2 ] in
  Alcotest.(check int) "one po" 1 (Aig.Network.num_pos h);
  Alcotest.(check bool) "no bigger" true (Aig.Network.num_ands h <= Aig.Network.num_ands g);
  Alcotest.(check (result unit string)) "well-formed" (Ok ()) (Aig.Network.check h)

let test_mutate_changes_function () =
  (* inject is brute-verified: the mutant must differ from the base. *)
  let rng = Sim.Rng.create ~seed:99L in
  for _ = 1 to 10 do
    let g = Util.random_network ~pis:6 ~nodes:40 ~pos:3 (Sim.Rng.int rng 10_000) in
    let fault, mutant = Fuzz.Gencase.inject rng ~left:g g in
    ignore (Fuzz.Mutate.describe fault);
    Alcotest.(check bool) "mutant differs" false (Util.equivalent_brute g mutant);
    Alcotest.(check int) "interface preserved" (Aig.Network.num_pis g)
      (Aig.Network.num_pis mutant)
  done

let test_gencase_deterministic () =
  for id = 0 to 7 do
    let a = Fuzz.Gencase.generate ~run_seed:123L ~id in
    let b = Fuzz.Gencase.generate ~run_seed:123L ~id in
    Alcotest.(check string) "descr" a.Fuzz.Gencase.descr b.Fuzz.Gencase.descr;
    Alcotest.(check string) "same miter"
      (Aig.Aiger_io.to_string a.Fuzz.Gencase.miter)
      (Aig.Aiger_io.to_string b.Fuzz.Gencase.miter)
  done

let test_gencase_expected_matches_brute () =
  for id = 0 to 11 do
    let c = Fuzz.Gencase.generate ~run_seed:77L ~id in
    Alcotest.(check (result unit string)) "well-formed" (Ok ())
      (Aig.Network.check c.Fuzz.Gencase.miter);
    let brute =
      match Fuzz.Brute.check_miter c.Fuzz.Gencase.miter with
      | `Equivalent -> `Equivalent
      | `Inequivalent _ -> `Inequivalent
    in
    Alcotest.(check bool)
      (Printf.sprintf "case %d (%s) expected verdict" id c.Fuzz.Gencase.descr)
      true
      (brute = (c.Fuzz.Gencase.expected :> [ `Equivalent | `Inequivalent ]))
  done

let liar = { Fuzz.Oracle.name = "liar"; run = (fun ~pool:_ _ -> Simsweep.Engine.Proved) }

let test_oracle_clean_case () =
  Util.with_pool @@ fun pool ->
  let g = Util.random_network ~pis:6 ~nodes:40 ~pos:3 5 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  let o = Fuzz.Oracle.run ~expected:`Equivalent ~certify:true ~pool m in
  Alcotest.(check int) "no failures" 0 (List.length o.Fuzz.Oracle.failures);
  Alcotest.(check bool) "brute participated" true
    (List.mem_assoc "brute" o.Fuzz.Oracle.verdicts)

let test_oracle_catches_liar () =
  Util.with_pool @@ fun pool ->
  let rng = Sim.Rng.create ~seed:5L in
  let g = Util.random_network ~pis:7 ~nodes:60 ~pos:4 31 in
  let _, mutant = Fuzz.Gencase.inject rng ~left:g g in
  let m = Aig.Miter.build g mutant in
  let engines = Fuzz.Oracle.default_engines @ [ liar ] in
  let o = Fuzz.Oracle.run ~engines ~pool m in
  let caught =
    List.exists
      (function
        | Fuzz.Oracle.Disagreement { equiv; inequiv } ->
            List.mem "liar" equiv && List.mem "brute" inequiv
        | _ -> false)
      o.Fuzz.Oracle.failures
  in
  Alcotest.(check bool) "liar flagged against brute" true caught

let test_oracle_catches_bad_cex () =
  Util.with_pool @@ fun pool ->
  let g = Util.random_network ~pis:6 ~nodes:40 ~pos:3 8 in
  let m = Aig.Miter.build g (Aig.Network.copy g) in
  (* An engine claiming inequivalence with a CEX that cannot replay. *)
  let bogus =
    {
      Fuzz.Oracle.name = "bogus";
      run =
        (fun ~pool:_ m ->
          Simsweep.Engine.Disproved (Array.make (Aig.Network.num_pis m) false, 0));
    }
  in
  let o =
    Fuzz.Oracle.run ~engines:(Fuzz.Oracle.default_engines @ [ bogus ]) ~pool m
  in
  let caught =
    List.exists
      (function Fuzz.Oracle.Bad_cex { engine = "bogus"; _ } -> true | _ -> false)
      o.Fuzz.Oracle.failures
  in
  Alcotest.(check bool) "bogus cex flagged" true caught

let test_shrink_keeps_failure () =
  let rng = Sim.Rng.create ~seed:17L in
  let g = Util.random_network ~pis:8 ~nodes:120 ~pos:6 55 in
  let _, mutant = Fuzz.Gencase.inject rng ~left:g g in
  let m = Aig.Miter.build g mutant in
  let fails g =
    match Fuzz.Brute.check_miter g with `Inequivalent _ -> true | `Equivalent -> false
  in
  let shrunk, evals = Fuzz.Shrink.shrink ~budget:300 ~fails m in
  Alcotest.(check bool) "still failing" true (fails shrunk);
  Alcotest.(check bool) "not bigger" true
    (Aig.Network.num_ands shrunk <= Aig.Network.num_ands m);
  Alcotest.(check bool) "spent bounded evals" true (evals <= 300);
  Alcotest.(check (result unit string)) "well-formed" (Ok ())
    (Aig.Network.check shrunk)

let test_shrink_noop_on_passing () =
  let g = Util.random_network ~pis:5 ~nodes:30 ~pos:2 3 in
  let m = Aig.Miter.build g (Aig.Network.copy g) in
  let shrunk, evals = Fuzz.Shrink.shrink ~fails:(fun _ -> false) m in
  Alcotest.(check int) "no evals" 0 evals;
  Alcotest.(check bool) "unchanged" true (shrunk == m)

let run_config cases seed =
  {
    Fuzz.Runner.default_config with
    Fuzz.Runner.seed;
    cases;
    out_dir = Filename.concat (Filename.get_temp_dir_name ()) "simsweep-fuzz-test";
    certify_every = 5;
  }

let test_runner_deterministic () =
  Util.with_pool @@ fun pool ->
  let collect () =
    let lines = ref [] in
    let summary =
      Fuzz.Runner.run ~log:(fun l -> lines := l :: !lines) ~pool (run_config 6 42L)
    in
    (List.rev !lines, summary)
  in
  let l1, s1 = collect () in
  let l2, s2 = collect () in
  Alcotest.(check (list string)) "identical verdict logs" l1 l2;
  Alcotest.(check int) "no failures" 0 s1.Fuzz.Runner.failed_cases;
  Alcotest.(check int) "same failures" s1.Fuzz.Runner.failed_cases
    s2.Fuzz.Runner.failed_cases

let test_runner_flags_liar () =
  Util.with_pool @@ fun pool ->
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "simsweep-fuzz-liar" in
  let config =
    { (run_config 4 7L) with Fuzz.Runner.out_dir = dir; shrink_budget = 150 }
  in
  let summary = Fuzz.Runner.run ~extra_engines:[ liar ] ~pool config in
  (* Only the mutated (inequivalent) cases expose the liar. *)
  let expected_failures =
    let n = ref 0 in
    for id = 0 to config.Fuzz.Runner.cases - 1 do
      let c = Fuzz.Gencase.generate ~run_seed:config.Fuzz.Runner.seed ~id in
      if c.Fuzz.Gencase.expected = `Inequivalent then incr n
    done;
    !n
  in
  Alcotest.(check int) "each inequivalent case failed" expected_failures
    summary.Fuzz.Runner.failed_cases;
  List.iter
    (fun r ->
      Alcotest.(check bool) "repro file exists" true (Sys.file_exists r.Fuzz.Report.path);
      (* The artifact must parse and still disagree with the liar. *)
      let g = Aig.Aiger_io.read_file r.Fuzz.Report.path in
      match Fuzz.Brute.check_miter g with
      | `Inequivalent _ -> ()
      | `Equivalent -> Alcotest.fail "repro lost the inequivalence")
    summary.Fuzz.Runner.repros

let test_self_test () =
  Util.with_pool @@ fun pool ->
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "simsweep-fuzz-self" in
  match Fuzz.Runner.self_test ~pool ~out_dir:dir ~seed:1L () with
  | Error msg -> Alcotest.fail msg
  | Ok repro ->
      Alcotest.(check bool) "shrunk to <= 20%" true
        (repro.Fuzz.Report.shrunk_ands * 5 <= repro.Fuzz.Report.original_ands);
      Alcotest.(check bool) "repro written" true (Sys.file_exists repro.Fuzz.Report.path)

let () =
  (* The oracle's shard engine re-execs this test binary as its workers. *)
  Shard.Worker.maybe_become_worker ();
  Alcotest.run "fuzz"
    [
      ( "surgery",
        [
          Alcotest.test_case "substitute" `Quick test_surgery_substitute;
          Alcotest.test_case "identity rewrite" `Quick test_surgery_identity;
          Alcotest.test_case "restrict pos" `Quick test_surgery_restrict;
        ] );
      ( "generator",
        [
          Alcotest.test_case "mutants change function" `Quick test_mutate_changes_function;
          Alcotest.test_case "deterministic" `Quick test_gencase_deterministic;
          Alcotest.test_case "expected matches brute" `Quick
            test_gencase_expected_matches_brute;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean case" `Quick test_oracle_clean_case;
          Alcotest.test_case "catches liar" `Quick test_oracle_catches_liar;
          Alcotest.test_case "catches bad cex" `Quick test_oracle_catches_bad_cex;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "keeps failure" `Quick test_shrink_keeps_failure;
          Alcotest.test_case "noop on passing" `Quick test_shrink_noop_on_passing;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Slow test_runner_deterministic;
          Alcotest.test_case "flags liar" `Slow test_runner_flags_liar;
          Alcotest.test_case "self test" `Slow test_self_test;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_brute_matches_reference; prop_brute_equivalent ] );
    ]
