let lit (l : Aig.Lit.t) : Solver.lit =
  Solver.mklit (Aig.Lit.node l) (Aig.Lit.is_compl l)

let iter_clauses g add =
  add [ Solver.mklit 0 true ];
  Aig.Network.iter_ands g (fun n ->
      let f0 = lit (Aig.Network.fanin0 g n) and f1 = lit (Aig.Network.fanin1 g n) in
      let vn = Solver.mklit n false in
      add [ Solver.neg vn; f0 ];
      add [ Solver.neg vn; f1 ];
      add [ vn; Solver.neg f0; Solver.neg f1 ])

let clauses g =
  let acc = ref [] in
  iter_clauses g (fun c -> acc := c :: !acc);
  List.rev !acc

let load solver g =
  let ok = ref true in
  Aig.Network.iter_nodes g (fun _ -> ignore (Solver.new_var solver));
  iter_clauses g (fun c -> if not (Solver.add_clause solver c) then ok := false);
  !ok

let cex g value = Array.init (Aig.Network.num_pis g) (fun i -> value (Aig.Network.pi g i))
