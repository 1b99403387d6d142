(* ROBDD package. *)

let test_basic_ops () =
  let m = Bdd.create ~num_vars:3 () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.bdd_and m x y in
  Alcotest.(check bool) "canonical and" true
    (Bdd.equal f (Bdd.bdd_and m y x));
  Alcotest.(check bool) "x & !x = 0" true
    (Bdd.is_false m (Bdd.bdd_and m x (Bdd.bdd_not m x)));
  Alcotest.(check bool) "x | !x = 1" true
    (Bdd.is_true m (Bdd.bdd_or m x (Bdd.bdd_not m x)));
  Alcotest.(check bool) "xor self" true (Bdd.is_false m (Bdd.bdd_xor m f f));
  Alcotest.(check bool) "double not" true (Bdd.equal f (Bdd.bdd_not m (Bdd.bdd_not m f)))

let test_eval_count () =
  let m = Bdd.create ~num_vars:3 () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let maj =
    Bdd.bdd_or m
      (Bdd.bdd_or m (Bdd.bdd_and m x y) (Bdd.bdd_and m x z))
      (Bdd.bdd_and m y z)
  in
  Alcotest.(check (float 0.01)) "majority count" 4. (Bdd.count_sat m maj);
  Alcotest.(check bool) "110" true (Bdd.eval m maj [| true; true; false |]);
  Alcotest.(check bool) "100" false (Bdd.eval m maj [| true; false; false |]);
  match Bdd.any_sat m maj with
  | Some a -> Alcotest.(check bool) "witness" true (Bdd.eval m maj a)
  | None -> Alcotest.fail "majority is satisfiable"

let test_ite () =
  let m = Bdd.create ~num_vars:3 () in
  let s = Bdd.var m 0 and a = Bdd.var m 1 and b = Bdd.var m 2 in
  let f = Bdd.ite m s a b in
  for p = 0 to 7 do
    let v = Array.init 3 (fun i -> (p lsr i) land 1 = 1) in
    Alcotest.(check bool)
      (Printf.sprintf "ite %d" p)
      (if v.(0) then v.(1) else v.(2))
      (Bdd.eval m f v)
  done

let test_of_output_matches_aig () =
  let g = Util.random_network ~pis:6 ~nodes:50 ~pos:3 31 in
  let m = Bdd.create ~num_vars:6 () in
  for po = 0 to 2 do
    let b = Bdd.of_output m g po in
    for p = 0 to 63 do
      let v = Array.init 6 (fun i -> (p lsr i) land 1 = 1) in
      if Bdd.eval m b v <> Sim.Cex.check g v po then
        Alcotest.failf "po %d pattern %d" po p
    done
  done

let test_check_equivalence () =
  let g = Gen.Arith.adder ~bits:4 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  (match Bdd.check m with
  | `Equivalent -> ()
  | _ -> Alcotest.fail "adder vs optimised adder");
  let bad = Aig.Network.copy g in
  Aig.Network.set_po bad 2 (Aig.Lit.neg (Aig.Network.po bad 2));
  match Bdd.check (Aig.Miter.build g bad) with
  | `Inequivalent (cex, po) ->
      Alcotest.(check bool) "cex valid" true
        (Sim.Cex.check (Aig.Miter.build g bad) cex po)
  | _ -> Alcotest.fail "expected inequivalence"

let test_node_limit () =
  (* Multipliers have exponential BDDs: a small budget must abort. *)
  let g = Gen.Arith.multiplier ~bits:8 in
  let m = Aig.Miter.build g (Aig.Network.copy g) in
  (* A miter of identical circuits strashes to constants; use a
     non-trivially optimised one instead. *)
  let m2 = Aig.Miter.build g (Opt.Xorflip.run g) in
  ignore m;
  match Bdd.check ~node_limit:2000 m2 with
  | `Node_limit -> ()
  | `Timeout -> Alcotest.fail "expected node-limit abort (got step timeout)"
  | `Equivalent -> Alcotest.fail "expected node-limit abort (got equivalent)"
  | `Inequivalent _ -> Alcotest.fail "multiplier miter is equivalent"

let test_voter_friendly () =
  (* Symmetric functions have polynomial BDDs: the voter must verify within
     a modest budget — this is the portfolio's Table II crossover. *)
  let g = Gen.Control.voter ~n:21 in
  let m = Aig.Miter.build g (Opt.Resyn.light g) in
  match Bdd.check ~node_limit:200_000 m with
  | `Equivalent -> ()
  | `Node_limit | `Timeout -> Alcotest.fail "voter BDD should stay small"
  | `Inequivalent _ -> Alcotest.fail "voter miter is equivalent"

let prop_matches_brute =
  QCheck.Test.make ~name:"bdd check agrees with brute force" ~count:25
    Util.arb_seed (fun seed ->
      let g1 = Util.random_network ~pis:5 ~nodes:30 ~pos:2 seed in
      let g2 = Util.random_network ~pis:5 ~nodes:30 ~pos:2 (seed + 7) in
      let miter = Aig.Miter.build g1 g2 in
      match Bdd.check miter with
      | `Equivalent -> Util.equivalent_brute g1 g2
      | `Inequivalent (cex, po) ->
          (not (Util.equivalent_brute g1 g2)) && Sim.Cex.check miter cex po
      | `Node_limit | `Timeout -> false)

(* One manager holds every output of a 6-bit multiplier and of its
   optimised copy: tens of thousands of nodes, several doublings of the
   unique table from its initial 4,096 slots.  Canonicity survives the
   resizes: each pair of outputs is one handle, and building the first
   circuit again adds no node.  Those rebuilds are answered by the
   computed tables before [mk] looks anything up, so the circuits are
   first built an AND at a time, and after each AND every BDD the step
   used or made — the AND's and its fanins', complements included — is
   rebuilt as [(f xor v) xor v] for the last variable [v].  The XOR
   table is cold for [f], so every node of [f] reaches [mk] again before
   the table can double again, and [mk] must find it rather than add a
   duplicate. *)
let test_unique_table () =
  let module N = Aig.Network in
  let g = Gen.Arith.multiplier ~bits:6 in
  let h = Opt.Resyn.light g in
  let m = Bdd.create ~num_vars:(N.num_pis g) () in
  let v = Bdd.var m (N.num_pis g - 1) in
  let found_again f = Bdd.equal f (Bdd.bdd_xor m (Bdd.bdd_xor m f v) v) in
  let walk name g =
    let bdd = Array.make (N.num_nodes g) (Bdd.bdd_xor m v v) in
    for i = 0 to N.num_pis g - 1 do
      bdd.(N.pi g i) <- Bdd.var m i
    done;
    let of_lit l =
      let b = bdd.(Aig.Lit.node l) in
      if Aig.Lit.is_compl l then Bdd.bdd_not m b else b
    in
    let ok = ref true in
    N.iter_ands g (fun n ->
        let f0 = of_lit (N.fanin0 g n) and f1 = of_lit (N.fanin1 g n) in
        bdd.(n) <- Bdd.bdd_and m f0 f1;
        ok := !ok && found_again bdd.(n) && found_again f0 && found_again f1);
    Alcotest.(check bool) (name ^ ": every BDD found again after its step") true !ok
  in
  walk "multiplier" g;
  walk "optimised copy" h;
  let build g = Array.init (N.num_pos g) (Bdd.of_output m g) in
  let a = build g in
  let b = build h in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) (Printf.sprintf "po %d same handle" i) true
        (Bdd.equal x b.(i)))
    a;
  let size = Bdd.size m in
  Alcotest.(check bool) "four resizes" true (size > 4 * 4096);
  let a' = build g in
  Alcotest.(check bool) "rebuild, same handles" true (Array.for_all2 Bdd.equal a a');
  Alcotest.(check int) "rebuild adds no node" size (Bdd.size m)

(* What [Bdd.check] must answer: each unsolved output built in a fresh
   manager of its own, in PO order. *)
let reference miter =
  let num_vars = Aig.Network.num_pis miter in
  let rec go = function
    | [] -> `Equivalent
    | po :: rest -> (
        let m = Bdd.create ~num_vars () in
        match Bdd.any_sat m (Bdd.of_output m miter po) with
        | None -> go rest
        | Some cex -> `Inequivalent (cex, po))
  in
  go (Aig.Miter.unsolved_outputs miter)

(* [Bdd.check] shares one node map across outputs; that must not change
   the verdict, the PO or the CEX.  Miters are equivalent, inequivalent
   on one output, or of two unrelated networks, and each gets a constant
   PO and a second PO on the literal of PO 1. *)
let prop_shared_map =
  QCheck.Test.make ~name:"shared node map matches one manager per output"
    ~count:60 Util.arb_seed (fun seed ->
      let g1 = Util.random_network ~pis:6 ~nodes:40 ~pos:4 seed in
      let g2 =
        match seed mod 3 with
        | 0 -> Opt.Resyn.light g1
        | 1 ->
            let g = Opt.Resyn.light g1 in
            Aig.Network.set_po g 2 (Aig.Lit.neg (Aig.Network.po g 2));
            g
        | _ -> Util.random_network ~pis:6 ~nodes:40 ~pos:4 (seed + 7)
      in
      let miter = Aig.Miter.build g1 g2 in
      Aig.Network.add_po miter
        (if seed land 4 = 0 then Aig.Lit.const_false else Aig.Lit.const_true);
      Aig.Network.add_po miter (Aig.Network.po miter 1);
      Bdd.check miter = reference miter)

let () =
  Alcotest.run "bdd"
    [
      ( "unit",
        [
          Alcotest.test_case "basic ops" `Quick test_basic_ops;
          Alcotest.test_case "eval/count" `Quick test_eval_count;
          Alcotest.test_case "ite" `Quick test_ite;
          Alcotest.test_case "of_output" `Quick test_of_output_matches_aig;
          Alcotest.test_case "check" `Quick test_check_equivalence;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "voter friendly" `Quick test_voter_friendly;
          Alcotest.test_case "unique table" `Quick test_unique_table;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_matches_brute;
          QCheck_alcotest.to_alcotest prop_shared_map;
        ] );
    ]
