type edit =
  | Keep
  | Replace_with of Aig.Lit.t
  | Set_fanins of Aig.Lit.t * Aig.Lit.t

let rewrite g ~edit_of =
  let h = Aig.Network.create ~capacity:(Aig.Network.num_nodes g) () in
  (* map.(n) is the literal in [h] computing old node [n] positively;
     filled in increasing node id, so any old literal with a smaller node
     id can be referenced by an edit. *)
  let map = Array.make (Aig.Network.num_nodes g) Aig.Lit.const_false in
  let map_lit l =
    let n = Aig.Lit.node l in
    Aig.Lit.xor_compl map.(n) (Aig.Lit.is_compl l)
  in
  let check_backward n l =
    if Aig.Lit.node l >= n then
      invalid_arg "Surgery.rewrite: edit references a node at or above the edited one"
  in
  Aig.Network.iter_nodes g (fun n ->
      if Aig.Network.is_const n then ()
      else if Aig.Network.is_pi g n then map.(n) <- Aig.Network.add_pi h
      else
        map.(n) <-
          (match edit_of n with
          | Keep ->
              Aig.Network.add_and h
                (map_lit (Aig.Network.fanin0 g n))
                (map_lit (Aig.Network.fanin1 g n))
          | Replace_with l ->
              check_backward n l;
              map_lit l
          | Set_fanins (a, b) ->
              check_backward n a;
              check_backward n b;
              Aig.Network.add_and h (map_lit a) (map_lit b)));
  Array.iter (fun l -> Aig.Network.add_po h (map_lit l)) (Aig.Network.pos g);
  h

let substitute g ~node ~by = rewrite g ~edit_of:(fun n -> if n = node then Replace_with by else Keep)
