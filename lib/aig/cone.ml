type window = { inputs : int array; nodes : int array }

let extract g ~roots ~inputs =
  let input_set = Hashtbl.create (Array.length inputs * 2) in
  Array.iter (fun n -> Hashtbl.replace input_set n ()) inputs;
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let ok = ref true in
  let rec dfs n =
    if !ok && not (Hashtbl.mem seen n) && not (Hashtbl.mem input_set n) then begin
      Hashtbl.add seen n ();
      if Network.is_and g n then begin
        dfs (Lit.node (Network.fanin0 g n));
        dfs (Lit.node (Network.fanin1 g n));
        acc := n :: !acc
      end
      else
        (* PI or constant outside the boundary: the cut is not valid. *)
        ok := false
    end
  in
  Array.iter dfs roots;
  if not !ok then None
  else begin
    let nodes = Array.of_list !acc in
    Array.sort compare nodes;
    let inputs = Array.copy inputs in
    Array.sort compare inputs;
    Some { inputs; nodes }
  end

let tfi g ~roots =
  (* Iterative DFS: whole-network cones can be deeper than the stack. *)
  let mem = Array.make (Network.num_nodes g) false in
  let stack = ref [] in
  let push n =
    if not mem.(n) then begin
      mem.(n) <- true;
      stack := n :: !stack
    end
  in
  Array.iter push roots;
  let rec drain () =
    match !stack with
    | [] -> ()
    | n :: rest ->
        stack := rest;
        if Network.is_and g n then begin
          push (Lit.node (Network.fanin0 g n));
          push (Lit.node (Network.fanin1 g n))
        end;
        drain ()
  in
  drain ();
  mem

let restrict g pos =
  let npos = Network.num_pos g in
  List.iter
    (fun i -> if i < 0 || i >= npos then invalid_arg "Cone.restrict: PO out of range")
    pos;
  let roots = Array.of_list (List.map (fun i -> Lit.node (Network.po g i)) pos) in
  let cone = tfi g ~roots in
  let h = Network.create () in
  let map = Array.make (Network.num_nodes g) Lit.const_false in
  let tr l = Lit.xor_compl map.(Lit.node l) (Lit.is_compl l) in
  let pi_origin = ref [] in
  Network.iter_nodes g (fun id ->
      if cone.(id) then
        if Network.is_pi g id then begin
          map.(id) <- Network.add_pi h;
          pi_origin := Network.pi_index g id :: !pi_origin
        end
        else if Network.is_and g id then
          map.(id) <- Network.add_and h (tr (Network.fanin0 g id)) (tr (Network.fanin1 g id)));
  List.iter (fun i -> Network.add_po h (tr (Network.po g i))) pos;
  (h, Array.of_list (List.rev !pi_origin))
