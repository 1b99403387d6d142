type config = { k_l : int; c : int }

let enum_levels g ~repr_of =
  let n = Aig.Network.num_nodes g in
  let el = Array.make n 0 in
  Aig.Network.iter_ands g (fun id ->
      let f0 = Aig.Lit.node (Aig.Network.fanin0 g id) in
      let f1 = Aig.Lit.node (Aig.Network.fanin1 g id) in
      let base = 1 + max el.(f0) el.(f1) in
      let r = repr_of id in
      el.(id) <- (if r = id then base else max base (1 + el.(r))));
  el

(* All merges [u ∪ v] of [us × vs] within [k_l] leaves, deduplicated and in
   [Cut.compare] order.  A pair whose signatures already show more than
   [k_l] distinct leaves is rejected before [Cut.merge] runs. *)
let merge_sets ~k_l us vs =
  let vs = Array.of_list vs in
  let vsig = Array.map Cut.signature vs in
  let acc = ref [] in
  List.iter
    (fun u ->
      let su = Cut.signature u in
      for j = 0 to Array.length vs - 1 do
        if not (Cut.sig_exceeds ~cap:k_l (su lor vsig.(j))) then
          match Cut.merge ~cap:k_l u vs.(j) with
          | Some c -> acc := c :: !acc
          | None -> ()
      done)
    us;
  List.sort_uniq Cut.compare !acc

let candidates g ~k_l ~prio n =
  let n0 = Aig.Lit.node (Aig.Network.fanin0 g n) in
  let n1 = Aig.Lit.node (Aig.Network.fanin1 g n) in
  merge_sets ~k_l (Cut.trivial n0 :: prio.(n0)) (Cut.trivial n1 :: prio.(n1))

(* Keep the best [cfg.c] candidates, each scored once.  The kept arrays stay
   sorted best first; a candidate goes after every kept one it does not
   beat, so ties keep input order, as a stable sort would. *)
let select cfg ~pass ~fanouts ~levels ~sim_target cuts =
  let cmp_metrics = Criteria.compare_metrics pass in
  let none = { Criteria.fanout = 0.; size = 0; level = 0. } in
  let kcut = Array.make cfg.c [||] in
  let ksim = Array.make cfg.c 0. in
  let kmet = Array.make cfg.c none in
  let nkept = ref 0 in
  List.iter
    (fun cut ->
      let s =
        match sim_target with None -> 0. | Some t -> Cut.similarity cut t
      in
      let m = Criteria.metrics ~fanouts ~levels cut in
      (* Higher similarity first, then the pass criteria. *)
      let beats i =
        let r = Float.compare ksim.(i) s in
        r < 0 || (r = 0 && cmp_metrics m kmet.(i) < 0)
      in
      let i = ref !nkept in
      while !i > 0 && beats (!i - 1) do
        decr i
      done;
      if !i < cfg.c then begin
        let last = min !nkept (cfg.c - 1) in
        let len = last - !i in
        Array.blit kcut !i kcut (!i + 1) len;
        Array.blit ksim !i ksim (!i + 1) len;
        Array.blit kmet !i kmet (!i + 1) len;
        kcut.(!i) <- cut;
        ksim.(!i) <- s;
        kmet.(!i) <- m;
        nkept := last + 1
      end)
    cuts;
  List.init !nkept (Array.get kcut)

let node_cuts g cfg ~pass ~fanouts ~levels ~prio ~sim_target n =
  if not (Aig.Network.is_and g n) then invalid_arg "Enumerate.node_cuts: not an AND";
  select cfg ~pass ~fanouts ~levels ~sim_target (candidates g ~k_l:cfg.k_l ~prio n)

let common_cuts ~k_l cuts_r cuts_n = merge_sets ~k_l cuts_r cuts_n
