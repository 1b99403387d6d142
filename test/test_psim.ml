(* Partial simulator: agreement with reference evaluation, determinism,
   embedded patterns, parallel consistency. *)

let test_matches_reference () =
  Util.with_pool (fun pool ->
      let g = Util.random_network ~pis:6 ~nodes:60 ~pos:4 5 in
      let rng = Sim.Rng.create ~seed:1L in
      let sigs = Sim.Psim.run g ~nwords:2 ~rng ~pool ~embed:[] in
      (* Check 20 random patterns against Cex.eval_lit. *)
      for p = 0 to 19 do
        let cex =
          Array.init (Aig.Network.num_pis g) (fun i ->
              Sim.Psim.value sigs (Aig.Network.pi g i) p)
        in
        Aig.Network.iter_ands g (fun n ->
            let expect = Sim.Cex.eval_lit g cex (Aig.Lit.make n false) in
            if Sim.Psim.value sigs n p <> expect then
              Alcotest.failf "node %d pattern %d mismatch" n p)
      done)

let test_deterministic () =
  Util.with_pool (fun pool ->
      let g = Util.random_network ~pis:8 ~nodes:100 11 in
      let run () =
        let rng = Sim.Rng.create ~seed:77L in
        let sigs = Sim.Psim.run g ~nwords:4 ~rng ~pool ~embed:[] in
        List.init (Aig.Network.num_nodes g) (fun n -> Sim.Psim.class_key sigs n)
      in
      Alcotest.(check bool) "same keys" true (run () = run ()))

let test_embed () =
  Util.with_pool (fun pool ->
      let g = Gen.Arith.adder ~bits:2 in
      let rng = Sim.Rng.create ~seed:3L in
      (* Embed the all-ones assignment at slot 0 and all-zeros at slot 1. *)
      let e1 = Array.make 4 true and e0 = Array.make 4 false in
      let sigs = Sim.Psim.run g ~nwords:1 ~rng ~pool ~embed:[ e1; e0 ] in
      (* 3 + 3 = 6 = 110: sum bits (LSB first) 0,1,1 *)
      let po_val p i =
        let l = Aig.Network.po g i in
        Sim.Psim.value sigs (Aig.Lit.node l) p <> Aig.Lit.is_compl l
      in
      Alcotest.(check bool) "s0@ones" false (po_val 0 0);
      Alcotest.(check bool) "s1@ones" true (po_val 0 1);
      Alcotest.(check bool) "carry@ones" true (po_val 0 2);
      Alcotest.(check bool) "s0@zeros" false (po_val 1 0);
      Alcotest.(check bool) "carry@zeros" false (po_val 1 2))

let test_const_row () =
  Util.with_pool (fun pool ->
      let g = Util.random_network 2 in
      let rng = Sim.Rng.create ~seed:5L in
      let sigs = Sim.Psim.run g ~nwords:2 ~rng ~pool ~embed:[] in
      Alcotest.(check (list int64)) "const node all-zero" [ 0L; 0L ]
        (List.init (Sim.Psim.nwords sigs) (Sim.Psim.word sigs 0)))

let test_compare_nodes () =
  Util.with_pool (fun pool ->
      let g = Aig.Network.create () in
      let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
      let x = Aig.Network.add_and g a b in
      (* A functionally identical copy that escapes strashing. *)
      let t = Aig.Network.add_and g a (Aig.Lit.neg b) in
      let y = Aig.Network.add_and g (Aig.Lit.neg t) a in
      Aig.Network.add_po g x;
      Aig.Network.add_po g y;
      let rng = Sim.Rng.create ~seed:9L in
      let sigs = Sim.Psim.run g ~nwords:4 ~rng ~pool ~embed:[] in
      let signature l = List.init 4 (Sim.Psim.word sigs (Aig.Lit.node l)) in
      Alcotest.(check (list int64)) "x equals y" (signature x) (signature y);
      Alcotest.(check bool) "same class key" true
        (Sim.Psim.class_key sigs (Aig.Lit.node x)
        = Sim.Psim.class_key sigs (Aig.Lit.node y)))

let prop_parallel_independent =
  QCheck.Test.make ~name:"results independent of domain count" ~count:20
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:7 ~nodes:80 seed in
      let run nd =
        let pool = Par.Pool.create ~num_domains:nd () in
        Fun.protect
          ~finally:(fun () -> Par.Pool.shutdown pool)
          (fun () ->
            let rng = Sim.Rng.create ~seed:42L in
            let sigs = Sim.Psim.run g ~nwords:2 ~rng ~pool ~embed:[] in
            List.init (Aig.Network.num_nodes g) (fun n ->
                Sim.Psim.word sigs n 0))
      in
      run 1 = run 4)

let test_rng_known () =
  (* SplitMix64 reference values for seed 0 (from the published reference
     implementation). *)
  let r = Sim.Rng.create ~seed:0L in
  Alcotest.(check int64) "v1" 0xe220a8397b1dcdafL (Sim.Rng.next64 r);
  Alcotest.(check int64) "v2" 0x6e789e6aa1b965f4L (Sim.Rng.next64 r);
  Alcotest.(check int64) "v3" 0x06c45d188009454fL (Sim.Rng.next64 r)

let () =
  Alcotest.run "psim"
    [
      ( "unit",
        [
          Alcotest.test_case "matches reference" `Quick test_matches_reference;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "embed patterns" `Quick test_embed;
          Alcotest.test_case "const row" `Quick test_const_row;
          Alcotest.test_case "compare nodes" `Quick test_compare_nodes;
          Alcotest.test_case "rng known values" `Quick test_rng_known;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_parallel_independent ]);
    ]
