(* Counter-example handling. *)

let test_of_window_pattern () =
  let g = Aig.Network.create () in
  let _a = Aig.Network.add_pi g in
  let b = Aig.Network.add_pi g in
  let _c = Aig.Network.add_pi g in
  let d = Aig.Network.add_pi g in
  (* Window inputs are PIs b (var 0 of the pattern) and d (var 1). *)
  let inputs = [| Aig.Lit.node b; Aig.Lit.node d |] in
  let cex = Sim.Cex.of_window_pattern g ~inputs ~pattern:0b10 in
  Alcotest.(check (list bool)) "assignment" [ false; false; false; true ]
    (Array.to_list cex)

let test_of_window_pattern_rejects_internal () =
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
  let x = Aig.Network.add_and g a b in
  Alcotest.check_raises "internal node"
    (Invalid_argument "Cex.of_window_pattern: window input is not a PI")
    (fun () ->
      ignore (Sim.Cex.of_window_pattern g ~inputs:[| Aig.Lit.node x |] ~pattern:1))

let test_distance_one () =
  let cex = [| true; false; true |] in
  let d1 = Sim.Cex.distance_one cex in
  Alcotest.(check int) "three neighbours" 3 (List.length d1);
  List.iteri
    (fun i c ->
      let diff = ref 0 in
      Array.iteri (fun j v -> if v <> cex.(j) then incr diff) c;
      Alcotest.(check int) (Printf.sprintf "neighbour %d hamming" i) 1 !diff)
    d1;
  Alcotest.(check int) "limit" 2 (List.length (Sim.Cex.distance_one ~limit:2 cex))

let test_eval_and_check () =
  let g = Gen.Arith.adder ~bits:2 in
  (* 1 + 3 = 4 = 100 *)
  let cex = [| true; false; true; true |] in
  Alcotest.(check bool) "sum bit0" false (Sim.Cex.check g cex 0);
  Alcotest.(check bool) "sum bit1" false (Sim.Cex.check g cex 1);
  Alcotest.(check bool) "sum bit2" true (Sim.Cex.check g cex 2)

let prop_eval_matches_tt =
  QCheck.Test.make ~name:"eval_lit matches global truth table" ~count:30
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:5 ~nodes:40 seed in
      let l = Aig.Network.po g 0 in
      let tt = Util.global_tt g l in
      let ok = ref true in
      for m = 0 to 31 do
        let vals = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
        if Sim.Cex.eval_lit g vals l <> Bv.Tt.eval tt vals then ok := false
      done;
      !ok)

let () =
  Alcotest.run "cex"
    [
      ( "unit",
        [
          Alcotest.test_case "window pattern" `Quick test_of_window_pattern;
          Alcotest.test_case "rejects internal input" `Quick
            test_of_window_pattern_rejects_internal;
          Alcotest.test_case "distance one" `Quick test_distance_one;
          Alcotest.test_case "eval/check" `Quick test_eval_and_check;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_eval_matches_tt ] );
    ]
