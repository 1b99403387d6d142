(* Union-find over nodes; only PI and AND slots are ever used. *)
let find parent x =
  let rec go x = if parent.(x) = x then x else go parent.(x) in
  let root = go x in
  (* Path compression. *)
  let rec compress x =
    if parent.(x) <> root then begin
      let next = parent.(x) in
      parent.(x) <- root;
      compress next
    end
  in
  compress x;
  root

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(max ra rb) <- min ra rb

(* The union-find forest of [g]'s AND fanin edges, and the support groups
   it induces on the POs. *)
let forest g =
  let n = Aig.Network.num_nodes g in
  let parent = Array.init n Fun.id in
  Aig.Network.iter_ands g (fun id ->
      let f0 = Aig.Lit.node (Aig.Network.fanin0 g id) in
      let f1 = Aig.Lit.node (Aig.Network.fanin1 g id) in
      (* The constant node never joins a group. *)
      if f0 <> 0 then union parent id f0;
      if f1 <> 0 then union parent id f1);
  let by_root = Hashtbl.create 16 in
  let const_group = ref [] in
  for i = Aig.Network.num_pos g - 1 downto 0 do
    let l = Aig.Network.po g i in
    let d = Aig.Lit.node l in
    if d = 0 then const_group := i :: !const_group
    else begin
      let r = find parent d in
      Hashtbl.replace by_root r (i :: (try Hashtbl.find by_root r with Not_found -> []))
    end
  done;
  let gs = Hashtbl.fold (fun _ pos acc -> pos :: acc) by_root [] in
  let gs = List.sort compare gs in
  (parent, if !const_group = [] then gs else !const_group :: gs)

let groups g = snd (forest g)

(* A group's POs' cones lie inside its component and no other group's
   cone reaches it, so the cone ANDs of every group are counted by one
   TFI pass over all PO drivers, per component root. *)
let sized_groups g =
  let parent, gs = forest g in
  let driver i = Aig.Lit.node (Aig.Network.po g i) in
  let roots = List.init (Aig.Network.num_pos g) driver |> List.filter (( <> ) 0) in
  let cone = Aig.Cone.tfi g ~roots:(Array.of_list roots) in
  let count = Array.make (Aig.Network.num_nodes g) 0 in
  Aig.Network.iter_ands g (fun id ->
      if cone.(id) then
        let r = find parent id in
        count.(r) <- count.(r) + 1);
  List.map
    (fun pos ->
      match pos with
      | i :: _ when driver i <> 0 -> (pos, count.(find parent (driver i)))
      | _ -> (pos, 0))
    gs

let extract g pos =
  let roots =
    List.filter_map
      (fun i ->
        let l = Aig.Network.po g i in
        if Aig.Lit.node l = 0 then None else Some (Aig.Lit.node l))
      pos
    |> Array.of_list
  in
  let cone = Aig.Cone.tfi g ~roots in
  let ng = Aig.Network.create () in
  let map = Array.make (Aig.Network.num_nodes g) (-1) in
  map.(0) <- Aig.Lit.const_false;
  let pi_origin = ref [] in
  Aig.Network.iter_nodes g (fun id ->
      if cone.(id) then
        if Aig.Network.is_pi g id then begin
          map.(id) <- Aig.Network.add_pi ng;
          pi_origin := Aig.Network.pi_index g id :: !pi_origin
        end
        else if Aig.Network.is_and g id then begin
          let tr l = Aig.Lit.xor_compl map.(Aig.Lit.node l) (Aig.Lit.is_compl l) in
          map.(id) <-
            Aig.Network.add_and ng
              (tr (Aig.Network.fanin0 g id))
              (tr (Aig.Network.fanin1 g id))
        end);
  List.iter
    (fun i ->
      let l = Aig.Network.po g i in
      let m = if Aig.Lit.node l = 0 then Aig.Lit.const_false else map.(Aig.Lit.node l) in
      Aig.Network.add_po ng (Aig.Lit.xor_compl m (Aig.Lit.is_compl l)))
    pos;
  (ng, Array.of_list (List.rev !pi_origin))

let const_verdict g pos =
  if List.for_all (fun i -> Aig.Lit.node (Aig.Network.po g i) = 0) pos then
    if List.for_all (fun i -> Aig.Network.po g i = Aig.Lit.const_false) pos then
      Some Engine.Proved
    else
      (* A constant-true PO: disproved by any assignment. *)
      let bad =
        List.find (fun i -> Aig.Network.po g i <> Aig.Lit.const_false) pos
      in
      Some (Engine.Disproved (Array.make (Aig.Network.num_pis g) false, bad))
  else None

let cone_ands g pos =
  let roots =
    List.filter_map
      (fun i ->
        let l = Aig.Network.po g i in
        if Aig.Lit.node l = 0 then None else Some (Aig.Lit.node l))
      pos
    |> Array.of_list
  in
  if Array.length roots = 0 then 0
  else begin
    let cone = Aig.Cone.tfi g ~roots in
    let n = ref 0 in
    Aig.Network.iter_ands g (fun id -> if cone.(id) then incr n);
    !n
  end

let split_group g ~max_ands ~ands pos =
  match pos with
  | [] | [ _ ] -> [ pos ]
  | _ when max_ands <= 0 -> [ pos ]
  | _ ->
      (* Greedy PO chunking: walk the POs in order, growing the current
         chunk's cone with an explicit-stack DFS, and close the chunk once
         it holds [max_ands] AND nodes.  Stamps are per chunk, so logic
         shared between chunks is counted (and later extracted) once per
         chunk — each chunk gets its own copy of the shared cone.  A
         single PO whose cone alone exceeds the budget becomes its own
         oversized chunk. *)
      let copied = ref 0 in
      let stamp = Array.make (Aig.Network.num_nodes g) (-1) in
      let chunk_id = ref 0 in
      let count = ref 0 in
      let stack = ref [] in
      let push id =
        if id <> 0 && stamp.(id) <> !chunk_id then begin
          stamp.(id) <- !chunk_id;
          stack := id :: !stack
        end
      in
      let visit root =
        push root;
        let continue = ref true in
        while !continue do
          match !stack with
          | [] -> continue := false
          | id :: rest ->
              stack := rest;
              if Aig.Network.is_and g id then begin
                incr count;
                push (Aig.Lit.node (Aig.Network.fanin0 g id));
                push (Aig.Lit.node (Aig.Network.fanin1 g id))
              end
        done
      in
      let chunks = ref [] in
      let cur = ref [] in
      let flush () =
        if !cur <> [] then begin
          chunks := List.rev !cur :: !chunks;
          copied := !copied + !count;
          cur := [];
          incr chunk_id;
          count := 0
        end
      in
      List.iter
        (fun i ->
          visit (Aig.Lit.node (Aig.Network.po g i));
          cur := i :: !cur;
          if !count >= max_ands then flush ())
        pos;
      flush ();
      (* Past 3/2 of the group's own cone, a split multiplies the work it
         was meant to divide (a multiplier's cone lands in every chunk). *)
      if 2 * !copied > 3 * ands then [ pos ] else List.rev !chunks
