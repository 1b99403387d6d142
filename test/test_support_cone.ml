(* Structural support (capped and exact) and cone/window extraction. *)

let test_support_simple () =
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g
  and b = Aig.Network.add_pi g
  and c = Aig.Network.add_pi g in
  let x = Aig.Network.add_and g a b in
  let y = Aig.Network.add_and g x c in
  Aig.Network.add_po g y;
  let s = Aig.Support.exact g (Aig.Lit.node y) in
  Alcotest.(check (list int)) "support y"
    [ Aig.Lit.node a; Aig.Lit.node b; Aig.Lit.node c ]
    (Array.to_list s);
  let sizes = Aig.Support.size_capped g ~cap:8 in
  Alcotest.(check int) "size y" 3 sizes.(Aig.Lit.node y);
  Alcotest.(check int) "size x" 2 sizes.(Aig.Lit.node x);
  Alcotest.(check int) "size pi" 1 sizes.(Aig.Lit.node a);
  Alcotest.(check int) "size const" 0 sizes.(0)

let test_support_cap () =
  let g = Gen.Arith.adder ~bits:8 in
  let sizes = Aig.Support.size_capped g ~cap:4 in
  (* The MSB of an 8-bit adder depends on 16 inputs: over the cap. *)
  let msb = Aig.Lit.node (Aig.Network.po g 8) in
  Alcotest.(check int) "over cap" (-1) sizes.(msb)

let prop_capped_matches_exact =
  QCheck.Test.make ~name:"capped support equals exact below cap" ~count:50
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:50 seed in
      let capped = Aig.Support.capped g ~cap:6 in
      let ok = ref true in
      Aig.Network.iter_ands g (fun n ->
          match capped.(n) with
          | Some s -> if s <> Aig.Support.exact g n then ok := false
          | None -> ok := false (* cap = #PIs: nothing can exceed it *));
      !ok)

let prop_union_capped =
  QCheck.Test.make ~name:"union_capped is sorted union" ~count:200
    QCheck.(pair (list (int_bound 30)) (list (int_bound 30)))
    (fun (a, b) ->
      let sa = Array.of_list (List.sort_uniq compare a) in
      let sb = Array.of_list (List.sort_uniq compare b) in
      let expect = List.sort_uniq compare (a @ b) in
      match Aig.Support.union_capped ~cap:100 sa sb with
      | Some u -> Array.to_list u = expect
      | None -> false)

let test_union_cap_boundary () =
  let a = [| 1; 2; 3 |] and b = [| 4; 5 |] in
  Alcotest.(check bool) "exactly cap fits" true
    (Aig.Support.union_capped ~cap:5 a b <> None);
  Alcotest.(check bool) "cap-1 fails" true
    (Aig.Support.union_capped ~cap:4 a b = None);
  Alcotest.(check bool) "overlap counts once" true
    (Aig.Support.union_capped ~cap:3 [| 1; 2; 3 |] [| 2; 3 |] <> None)

let test_window_extraction () =
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g
  and b = Aig.Network.add_pi g
  and c = Aig.Network.add_pi g in
  let x = Aig.Network.add_and g a b in
  let y = Aig.Network.add_and g x c in
  let z = Aig.Network.add_and g y (Aig.Lit.neg a) in
  Aig.Network.add_po g z;
  let nz = Aig.Lit.node z and nx = Aig.Lit.node x and ny = Aig.Lit.node y in
  (* Cut {x, c, a} bounds z. *)
  (match
     Aig.Cone.extract g
       ~roots:[| nz |]
       ~inputs:[| Aig.Lit.node a; Aig.Lit.node c; nx |]
   with
  | Some w ->
      Alcotest.(check (list int)) "window nodes" [ ny; nz ]
        (Array.to_list w.Aig.Cone.nodes)
  | None -> Alcotest.fail "expected valid window");
  (* Cut {x} does not bound z (paths via c and a escape). *)
  Alcotest.(check bool) "invalid cut" true
    (Aig.Cone.extract g ~roots:[| nz |] ~inputs:[| nx |] = None)

let test_tfi () =
  let g = Gen.Arith.adder ~bits:4 in
  let po0 = Aig.Lit.node (Aig.Network.po g 0) in
  let mem = Aig.Cone.tfi g ~roots:[| po0 |] in
  (* Sum bit 0 depends only on a0, b0: its TFI must not contain the last
     PI. *)
  Alcotest.(check bool) "root in tfi" true mem.(po0);
  Alcotest.(check bool) "unrelated pi out" false mem.(Aig.Network.pi g 7)

(* [restrict g pos] rejects a PO index out of range. The extraction itself is
   checked in test_partition ("extract") and test_fuzz ("restrict pos"). *)
let test_restrict () =
  let g = Util.random_network ~pis:6 ~nodes:50 ~pos:4 19 in
  List.iter
    (fun pos ->
      match Aig.Cone.restrict g pos with
      | _ -> Alcotest.failf "PO list [%s] accepted" (String.concat ";" (List.map string_of_int pos))
      | exception Invalid_argument _ -> ())
    [ [ 4 ]; [ -1 ]; [ 0; 4 ] ]

(* Over random miters with a constant PO appended, and random PO subsets
   that hold the constant PO and one index twice: every sub-PO equals its
   original PO on random patterns lifted through the PI map. *)
let prop_restrict_keeps_functions =
  QCheck.Test.make ~name:"restrict keeps every listed PO's function" ~count:50
    Util.arb_seed (fun seed ->
      let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
      let side k =
        Gen.Control.random_logic ~pis:10 ~nodes:80 ~pos:5 ~seed:(Int64.of_int (seed + k))
      in
      let m = Aig.Miter.build (side 0) (side 1) in
      Aig.Network.add_po m
        (if seed mod 2 = 0 then Aig.Lit.const_false else Aig.Lit.const_true);
      let npos = Aig.Network.num_pos m in
      let picked = List.init (1 + Sim.Rng.int rng 4) (fun _ -> Sim.Rng.int rng npos) in
      let pos = (npos - 1) :: List.hd picked :: picked in
      let sub, origin = Aig.Cone.restrict m pos in
      Aig.Network.num_pos sub = List.length pos
      && Aig.Network.check sub = Ok ()
      && List.for_all
           (fun _ ->
             let full =
               Array.init (Aig.Network.num_pis m) (fun _ -> Sim.Rng.int rng 2 = 1)
             in
             let lifted = Array.map (fun orig -> full.(orig)) origin in
             List.for_all Fun.id
               (List.mapi
                  (fun k po -> Sim.Cex.check sub lifted k = Sim.Cex.check m full po)
                  pos))
           (List.init 32 Fun.id))

let prop_window_nodes_topological =
  QCheck.Test.make ~name:"window nodes are topologically ordered" ~count:50
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:60 seed in
      (* Window of a PO over all PIs is always valid. *)
      let root = Aig.Lit.node (Aig.Network.po g 0) in
      if root = 0 || Aig.Network.is_pi g root then true
      else begin
        let inputs = Array.init 6 (fun i -> Aig.Network.pi g i) in
        match Aig.Cone.extract g ~roots:[| root |] ~inputs with
        | None -> false
        | Some w ->
            let sorted = Array.copy w.Aig.Cone.nodes in
            Array.sort compare sorted;
            sorted = w.Aig.Cone.nodes
            && Array.exists (fun n -> n = root) w.Aig.Cone.nodes
      end)

let () =
  Alcotest.run "support-cone"
    [
      ( "unit",
        [
          Alcotest.test_case "support simple" `Quick test_support_simple;
          Alcotest.test_case "support cap" `Quick test_support_cap;
          Alcotest.test_case "union cap boundary" `Quick test_union_cap_boundary;
          Alcotest.test_case "window extraction" `Quick test_window_extraction;
          Alcotest.test_case "tfi" `Quick test_tfi;
          Alcotest.test_case "restrict" `Quick test_restrict;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_capped_matches_exact;
            prop_union_capped;
            prop_window_nodes_topological;
            prop_restrict_keeps_functions;
          ] );
    ]
