type lut = { root : int; inputs : int array; tt : Bv.Tt.t }

type mapping = {
  luts : lut list;
  outputs : Aig.Lit.t array;
  num_pis : int;
  depth : int;
  pi_nodes : int array;  (* original PI node ids, in input order *)
}

(* Cut arrival time: one LUT level above the latest input. *)
let cut_arrival arrival cut =
  1 + Array.fold_left (fun acc i -> max acc arrival.(i)) 0 cut

let cut_area_flow aflow cut =
  Array.fold_left (fun acc i -> acc +. aflow.(i)) 1. cut

let select ~c ~score cuts =
  let ranked = List.map (fun cut -> (score cut, cut)) cuts in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) ranked in
  List.filteri (fun i _ -> i < c) (List.map snd sorted)

let map ?(k = 6) g =
  if k < 2 || k > 8 then invalid_arg "Mapper.map: k must be in [2, 8]";
  let n = Aig.Network.num_nodes g in
  let refs = Aig.Network.fanout_counts g in
  let prio = Array.make n [] in
  let best_cut = Array.make n [||] in
  let arrival = Array.make n 0 in
  let aflow = Array.make n 0. in
  let keep = 8 in
  (* Pass 1: depth-optimal choice, area flow as tie-breaker. *)
  Aig.Network.iter_ands g (fun id ->
      let cand = Cuts.Enumerate.candidates g ~k_l:k ~prio id in
      let score cut =
        ( cut_arrival arrival cut,
          cut_area_flow aflow cut,
          Cuts.Cut.size cut )
      in
      let chosen = select ~c:keep ~score cand in
      prio.(id) <- chosen;
      let best = List.hd chosen in
      best_cut.(id) <- best;
      arrival.(id) <- cut_arrival arrival best;
      aflow.(id) <- cut_area_flow aflow best /. float_of_int (max 1 refs.(id)));
  (* Required times from the POs. *)
  let depth =
    Array.fold_left
      (fun acc l -> max acc arrival.(Aig.Lit.node l))
      0 (Aig.Network.pos g)
  in
  let req = Array.make n max_int in
  Array.iter
    (fun l ->
      let d = Aig.Lit.node l in
      if d > 0 then req.(d) <- min req.(d) depth)
    (Aig.Network.pos g);
  for id = n - 1 downto 1 do
    if Aig.Network.is_and g id && req.(id) < max_int then
      Array.iter
        (fun i -> req.(i) <- min req.(i) (req.(id) - 1))
        best_cut.(id)
  done;
  (* Pass 2: area recovery — among the stored priority cuts, pick the
     cheapest one that still meets the node's required time. *)
  Aig.Network.iter_ands g (fun id ->
      let feasible =
        List.filter (fun cut -> cut_arrival arrival cut <= req.(id)) prio.(id)
      in
      let pick =
        match feasible with
        | [] -> best_cut.(id)
        | _ ->
            List.fold_left
              (fun best cut ->
                if
                  compare
                    (cut_area_flow aflow cut, cut_arrival arrival cut)
                    (cut_area_flow aflow best, cut_arrival arrival best)
                  < 0
                then cut
                else best)
              (List.hd feasible) (List.tl feasible)
      in
      best_cut.(id) <- pick;
      arrival.(id) <- cut_arrival arrival pick;
      aflow.(id) <- cut_area_flow aflow pick /. float_of_int (max 1 refs.(id)));
  (* Cover extraction from the POs. *)
  let in_cover = Array.make n false in
  let stack = ref [] in
  let visit id =
    if Aig.Network.is_and g id && not in_cover.(id) then begin
      in_cover.(id) <- true;
      stack := id :: !stack
    end
  in
  Array.iter (fun l -> visit (Aig.Lit.node l)) (Aig.Network.pos g);
  let rec drain () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        Array.iter visit best_cut.(id);
        drain ()
  in
  drain ();
  let luts = ref [] in
  (* Increasing id = topological order. *)
  Aig.Network.iter_ands g (fun id ->
      if in_cover.(id) then begin
        let inputs = best_cut.(id) in
        match Opt.Conetv.cone_tt g ~inputs ~root:id with
        | Some tt -> luts := { root = id; inputs; tt } :: !luts
        | None -> assert false (* priority cuts always bound their root *)
      end);
  let depth =
    Array.fold_left
      (fun acc l -> max acc arrival.(Aig.Lit.node l))
      0 (Aig.Network.pos g)
  in
  {
    luts = List.rev !luts;
    outputs = Aig.Network.pos g;
    num_pis = Aig.Network.num_pis g;
    depth;
    pi_nodes = Array.init (Aig.Network.num_pis g) (fun i -> Aig.Network.pi g i);
  }

let lut_count m = List.length m.luts

let input_histogram m =
  let h = Array.make 9 0 in
  List.iter
    (fun l ->
      let k = Array.length l.inputs in
      h.(k) <- h.(k) + 1)
    m.luts;
  h

let to_network m =
  let ng = Aig.Network.create () in
  let lit_of = Hashtbl.create 256 in
  Hashtbl.replace lit_of 0 Aig.Lit.const_false;
  Array.iter (fun p -> Hashtbl.replace lit_of p (Aig.Network.add_pi ng)) m.pi_nodes;
  List.iter
    (fun l ->
      let input_lits = Array.map (fun i -> Hashtbl.find lit_of i) l.inputs in
      let form = Bv.Sop.factor (Bv.Isop.isop l.tt) in
      Hashtbl.replace lit_of l.root (Opt.Conetv.build_form ng form input_lits))
    m.luts;
  Array.iter
    (fun l ->
      let base = Hashtbl.find lit_of (Aig.Lit.node l) in
      Aig.Network.add_po ng (Aig.Lit.xor_compl base (Aig.Lit.is_compl l)))
    m.outputs;
  (Aig.Reduce.sweep ng).Aig.Reduce.network
