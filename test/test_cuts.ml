(* Cut data structure, Table I selection criteria and priority-cut
   enumeration. *)

let test_cut_ops () =
  let a = [| 1; 3; 5 |] and b = [| 3; 4 |] in
  (match Cuts.Cut.merge ~cap:4 a b with
  | Some u -> Alcotest.(check (list int)) "union" [ 1; 3; 4; 5 ] (Array.to_list u)
  | None -> Alcotest.fail "merge fits");
  Alcotest.(check bool) "over cap" true (Cuts.Cut.merge ~cap:3 a b = None);
  Alcotest.(check bool) "subset" true (Cuts.Cut.subset [| 3 |] a);
  Alcotest.(check bool) "not subset" false (Cuts.Cut.subset [| 2 |] a);
  Alcotest.(check int) "trivial" 1 (Cuts.Cut.size (Cuts.Cut.trivial 9))

let test_similarity () =
  (* s({a,b}, [{a,b},{a,c}]) = 1 + 1/3. *)
  let s = Cuts.Cut.similarity [| 1; 2 |] [ [| 1; 2 |]; [| 1; 3 |] ] in
  Alcotest.(check (float 1e-9)) "jaccard sum" (1. +. (1. /. 3.)) s

let test_criteria_orders () =
  let fanouts = [| 0; 5; 1; 1 |] and levels = [| 0; 0; 2; 4 |] in
  let m c = Cuts.Criteria.metrics ~fanouts ~levels c in
  let hi_fanout = m [| 1 |] (* fanout 5, level 0, size 1 *)
  and lo_level = m [| 2 |] (* fanout 1, level 2 *)
  and hi_level = m [| 3 |] (* fanout 1, level 4 *) in
  let better pass a b = Cuts.Criteria.compare_metrics pass a b < 0 in
  Alcotest.(check bool) "pass1 prefers fanout" true
    (better Cuts.Criteria.Fanout_first hi_fanout lo_level);
  Alcotest.(check bool) "pass2 prefers small level" true
    (better Cuts.Criteria.Small_level_first lo_level hi_level);
  Alcotest.(check bool) "pass3 prefers large level" true
    (better Cuts.Criteria.Large_level_first hi_level lo_level);
  (* Tie on the main metric falls back to size. *)
  let small = m [| 2 |] and big = m [| 2; 3 |] in
  ignore big;
  let big' = Cuts.Criteria.metrics ~fanouts ~levels [| 2; 2 |] in
  Alcotest.(check bool) "size tie-break" true
    (Cuts.Criteria.compare_metrics Cuts.Criteria.Fanout_first small big' <= 0)

let compute_prio g ~k_l ~c ~pass =
  let fanouts = Aig.Network.fanout_counts g in
  let levels = Aig.Network.levels g in
  let prio = Array.make (Aig.Network.num_nodes g) [] in
  for i = 0 to Aig.Network.num_pis g - 1 do
    let p = Aig.Network.pi g i in
    prio.(p) <- [ Cuts.Cut.trivial p ]
  done;
  let cfg = { Cuts.Enumerate.k_l; c } in
  Aig.Network.iter_ands g (fun n ->
      prio.(n) <-
        Cuts.Enumerate.node_cuts g cfg ~pass ~fanouts ~levels ~prio
          ~sim_target:None n);
  prio

let prop_cuts_are_valid =
  QCheck.Test.make ~name:"every priority cut bounds its node" ~count:30
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:50 seed in
      let prio = compute_prio g ~k_l:4 ~c:6 ~pass:Cuts.Criteria.Fanout_first in
      let ok = ref true in
      Aig.Network.iter_ands g (fun n ->
          List.iter
            (fun cut ->
              if Array.length cut > 4 then ok := false;
              if not (Cuts.Cut.check g ~root:n cut) then ok := false)
            prio.(n));
      !ok)

let prop_cut_count_bounded =
  QCheck.Test.make ~name:"at most C cuts per node" ~count:30 Util.arb_seed
    (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:50 seed in
      let prio = compute_prio g ~k_l:4 ~c:3 ~pass:Cuts.Criteria.Small_level_first in
      let ok = ref true in
      Aig.Network.iter_ands g (fun n ->
          if List.length prio.(n) > 3 then ok := false);
      !ok)

let test_enum_levels () =
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
  let x = Aig.Network.add_and g a b in
  let y = Aig.Network.add_and g x (Aig.Lit.neg b) in
  let z = Aig.Network.add_and g (Aig.Lit.neg x) b in
  Aig.Network.add_po g y;
  Aig.Network.add_po g z;
  (* Make z a non-representative whose representative is y. *)
  let repr_of n = if n = Aig.Lit.node z then Aig.Lit.node y else n in
  let el = Cuts.Enumerate.enum_levels g ~repr_of in
  Alcotest.(check int) "pi level" 0 el.(Aig.Lit.node a);
  Alcotest.(check int) "x" 1 el.(Aig.Lit.node x);
  Alcotest.(check int) "y (repr)" 2 el.(Aig.Lit.node y);
  (* z structurally has level 2 but must wait for its representative y. *)
  Alcotest.(check int) "z waits for repr" 3 el.(Aig.Lit.node z)

let prop_enum_levels_dependencies =
  QCheck.Test.make ~name:"enum levels respect fanin+repr dependencies"
    ~count:30 Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:60 seed in
      (* Arbitrary repr assignment: even AND nodes point to an earlier odd
         AND node when possible. *)
      let ands = ref [] in
      Aig.Network.iter_ands g (fun n -> ands := n :: !ands);
      let ands = Array.of_list (List.rev !ands) in
      let repr_of n =
        if Array.length ands > 0 && n mod 3 = 0 && Aig.Network.is_and g n then begin
          let r = ands.(0) in
          if r < n then r else n
        end
        else n
      in
      let el = Cuts.Enumerate.enum_levels g ~repr_of in
      let ok = ref true in
      Aig.Network.iter_ands g (fun n ->
          let f0 = Aig.Lit.node (Aig.Network.fanin0 g n) in
          let f1 = Aig.Lit.node (Aig.Network.fanin1 g n) in
          if el.(n) <= max el.(f0) el.(f1) then ok := false;
          let r = repr_of n in
          if r <> n && el.(n) <= el.(r) then ok := false);
      !ok)

let prop_common_cuts_valid_for_both =
  QCheck.Test.make ~name:"common cuts bound both pair nodes" ~count:20
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:60 seed in
      let prio = compute_prio g ~k_l:5 ~c:4 ~pass:Cuts.Criteria.Fanout_first in
      (* Pick two AND nodes and intersect their cut spaces. *)
      let ands = ref [] in
      Aig.Network.iter_ands g (fun n -> ands := n :: !ands);
      match !ands with
      | n1 :: n2 :: _ ->
          let common = Cuts.Enumerate.common_cuts ~k_l:5 prio.(n2) prio.(n1) in
          List.for_all
            (fun cut ->
              Cuts.Cut.check g ~root:n1 cut && Cuts.Cut.check g ~root:n2 cut)
            common
      | _ -> true)

let test_similarity_steering () =
  (* With similarity steering, a non-representative prefers cuts close to
     its representative's. *)
  let g = Gen.Arith.adder ~bits:4 in
  let fanouts = Aig.Network.fanout_counts g in
  let levels = Aig.Network.levels g in
  let prio = compute_prio g ~k_l:4 ~c:4 ~pass:Cuts.Criteria.Fanout_first in
  (* Choose some node with at least two cuts; steer toward its own set. *)
  let target = ref None in
  Aig.Network.iter_ands g (fun n ->
      if !target = None && List.length prio.(n) >= 3 then target := Some n);
  match !target with
  | None -> Alcotest.fail "no node with enough cuts"
  | Some n ->
      let cfg = { Cuts.Enumerate.k_l = 4; c = 2 } in
      let steered =
        Cuts.Enumerate.node_cuts g cfg ~pass:Cuts.Criteria.Fanout_first ~fanouts
          ~levels ~prio ~sim_target:(Some prio.(n)) n
      in
      let sim_of cuts =
        List.fold_left (fun acc c -> acc +. Cuts.Cut.similarity c prio.(n)) 0. cuts
      in
      let unsteered =
        Cuts.Enumerate.node_cuts g cfg ~pass:Cuts.Criteria.Large_level_first
          ~fanouts ~levels ~prio ~sim_target:None n
      in
      Alcotest.(check bool) "steered similarity at least as high" true
        (sim_of steered +. 1e-9 >= sim_of unsteered)

(* A straightforward enumerator, the reference that [Cuts.Enumerate] must
   match cut for cut and in order: list-based unions, [Stdlib.compare]
   dedup, a stable sort over freshly recomputed scores, then the first [c]. *)
module Reference = struct
  let merge ~cap a b =
    let u = List.sort_uniq compare (Array.to_list a @ Array.to_list b) in
    if List.length u > cap then None else Some (Array.of_list u)

  let merges ~k_l us vs =
    let acc = ref [] in
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            match merge ~cap:k_l u v with Some c -> acc := c :: !acc | None -> ())
          vs)
      us;
    List.sort_uniq Stdlib.compare !acc

  let similarity c cuts =
    List.fold_left
      (fun acc c' ->
        let inter = List.length (List.filter (fun x -> Array.mem x c') (Array.to_list c)) in
        let union = Array.length c + Array.length c' - inter in
        acc +. (float_of_int inter /. float_of_int union))
      0. cuts

  let node_cuts g (cfg : Cuts.Enumerate.config) ~pass ~fanouts ~levels ~prio
      ~sim_target n =
    let n0 = Aig.Lit.node (Aig.Network.fanin0 g n) in
    let n1 = Aig.Lit.node (Aig.Network.fanin1 g n) in
    let cand =
      merges ~k_l:cfg.k_l ([| n0 |] :: prio.(n0)) ([| n1 |] :: prio.(n1))
    in
    let scored =
      List.map (fun c -> (c, Cuts.Criteria.metrics ~fanouts ~levels c)) cand
    in
    let cmp (ca, ma) (cb, mb) =
      let r =
        match sim_target with
        | None -> 0
        | Some t -> compare (similarity cb t) (similarity ca t)
      in
      if r <> 0 then r else Cuts.Criteria.compare_metrics pass ma mb
    in
    List.filteri (fun i _ -> i < cfg.c) (List.map fst (List.stable_sort cmp scored))
end

let gen_sorted_cut =
  QCheck.Gen.(
    map
      (fun l -> Array.of_list (List.sort_uniq compare l))
      (list_size (int_range 0 10) (int_range 1 200)))

(* Every AND's priority cuts, from both enumerators side by side.  Every
   third AND is steered (when [steer]) toward the cuts of the AND half its
   id below, as a non-representative toward its representative. *)
let prop_matches_reference =
  let arb =
    QCheck.make
      ~print:(fun (seed, pass, steer, k_l, c) ->
        Printf.sprintf "seed=%d pass=%d steer=%b k_l=%d c=%d" seed pass steer k_l c)
      QCheck.Gen.(
        let* seed = int_range 0 1_000_000 in
        let* pass = int_range 0 2 in
        let* steer = bool in
        let* k_l = oneofl [ 4; 6; 8 ] in
        let* c = oneofl [ 1; 3; 8 ] in
        return (seed, pass, steer, k_l, c))
  in
  QCheck.Test.make ~name:"node_cuts and common_cuts match the reference"
    ~count:120 arb (fun (seed, pass, steer, k_l, c) ->
      let g = Util.random_network ~pis:8 ~nodes:80 seed in
      let pass = List.nth Cuts.Criteria.table1 pass in
      let fanouts = Aig.Network.fanout_counts g in
      let levels = Aig.Network.levels g in
      let cfg = { Cuts.Enumerate.k_l; c } in
      let n = Aig.Network.num_nodes g in
      let prio = Array.make n [] and prio_ref = Array.make n [] in
      for i = 0 to Aig.Network.num_pis g - 1 do
        let p = Aig.Network.pi g i in
        prio.(p) <- [ Cuts.Cut.trivial p ];
        prio_ref.(p) <- [ Cuts.Cut.trivial p ]
      done;
      let target n =
        let r = n / 2 in
        if steer && n mod 3 = 0 && Aig.Network.is_and g r then Some r else None
      in
      let ok = ref true in
      Aig.Network.iter_ands g (fun m ->
          let r = target m in
          let steer_of prio = Option.map (fun r -> prio.(r)) r in
          prio.(m) <-
            Cuts.Enumerate.node_cuts g cfg ~pass ~fanouts ~levels ~prio
              ~sim_target:(steer_of prio) m;
          prio_ref.(m) <-
            Reference.node_cuts g cfg ~pass ~fanouts ~levels ~prio:prio_ref
              ~sim_target:(steer_of prio_ref) m;
          if prio.(m) <> prio_ref.(m) then ok := false;
          Option.iter
            (fun r ->
              if
                Cuts.Enumerate.common_cuts ~k_l prio.(r) prio.(m)
                <> Reference.merges ~k_l prio_ref.(r) prio_ref.(m)
              then ok := false)
            r);
      !ok)

let prop_merge_matches_union =
  QCheck.Test.make ~name:"Cut.merge is the capped union; signatures never reject a fit"
    ~count:1000
    (QCheck.make QCheck.Gen.(triple gen_sorted_cut gen_sorted_cut (int_range 0 12)))
    (fun (a, b, cap) ->
      let m = Cuts.Cut.merge ~cap a b in
      let rejected =
        Cuts.Cut.sig_exceeds ~cap (Cuts.Cut.signature a lor Cuts.Cut.signature b)
      in
      m = Reference.merge ~cap a b
      && m = Aig.Support.union_capped ~cap a b
      && ((not rejected) || m = None))

let prop_compare_agrees =
  QCheck.Test.make ~name:"Cut.compare agrees in sign with Stdlib.compare"
    ~count:1000
    QCheck.(pair (array_of_size Gen.(int_range 0 4) (int_range 0 6))
              (array_of_size Gen.(int_range 0 4) (int_range 0 6)))
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      sign (Cuts.Cut.compare a b) = sign (Stdlib.compare a b)
      && Cuts.Cut.compare a a = 0)

let () =
  Alcotest.run "cuts"
    [
      ( "unit",
        [
          Alcotest.test_case "cut ops" `Quick test_cut_ops;
          Alcotest.test_case "similarity" `Quick test_similarity;
          Alcotest.test_case "criteria" `Quick test_criteria_orders;
          Alcotest.test_case "enum levels" `Quick test_enum_levels;
          Alcotest.test_case "similarity steering" `Quick test_similarity_steering;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cuts_are_valid;
            prop_cut_count_bounded;
            prop_enum_levels_dependencies;
            prop_common_cuts_valid_for_both;
            prop_matches_reference;
            prop_merge_matches_union;
            prop_compare_agrees;
          ] );
    ]
