type shard = {
  id : int;
  pos : int list;
  sub : Aig.Network.t;
  pi_origin : int array;
  ands : int;
}

type t = {
  shards : shard list;
  groups : int;
  split_groups : int;
  early : Simsweep.Engine.outcome option;
}

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

let driver g i = Aig.Lit.node (Aig.Network.po g i)

(* Support groups: the union-find forest of [g]'s AND fanin edges, driven
   once through the ANDs, partitions the POs.  Constant POs form their
   own group, first when present.  A group's cone lies inside its
   component and no other group's cone reaches it, so every group's cone
   ANDs are counted by one TFI pass over all PO drivers. *)
let groups g =
  let parent = Array.init (Aig.Network.num_nodes g) Fun.id in
  Aig.Network.iter_ands g (fun id ->
      let f0 = Aig.Lit.node (Aig.Network.fanin0 g id) in
      let f1 = Aig.Lit.node (Aig.Network.fanin1 g id) in
      (* The constant node never joins a group. *)
      if f0 <> 0 then union parent id f0;
      if f1 <> 0 then union parent id f1);
  let by_root = Hashtbl.create 16 in
  let const_group = ref [] in
  for i = Aig.Network.num_pos g - 1 downto 0 do
    let d = driver g i in
    if d = 0 then const_group := i :: !const_group
    else begin
      let r = find parent d in
      Hashtbl.replace by_root r (i :: (try Hashtbl.find by_root r with Not_found -> []))
    end
  done;
  let gs = List.sort compare (Hashtbl.fold (fun _ pos acc -> pos :: acc) by_root []) in
  let roots =
    List.init (Aig.Network.num_pos g) (driver g) |> List.filter (( <> ) 0)
  in
  let cone = Aig.Cone.tfi g ~roots:(Array.of_list roots) in
  let count = Array.make (Aig.Network.num_nodes g) 0 in
  Aig.Network.iter_ands g (fun id ->
      if cone.(id) then
        let r = find parent id in
        count.(r) <- count.(r) + 1);
  let sized = List.map (fun pos -> (pos, count.(find parent (driver g (List.hd pos))))) gs in
  if !const_group = [] then sized else (!const_group, 0) :: sized

(* Chunk one support group, whose cone holds [ands] AND nodes, into
   consecutive PO runs of roughly [max_ands] AND nodes each.  Walk the
   POs in order, growing the current chunk's cone with an explicit-stack
   DFS, and close the chunk once it holds [max_ands] AND nodes.  Stamps
   are per chunk, so logic shared between chunks is counted (and later
   extracted) once per chunk; a single PO whose cone alone exceeds the
   budget becomes its own oversized chunk. *)
let split_group g ~max_ands ~ands pos =
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
  let rec drain () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        if Aig.Network.is_and g id then begin
          incr count;
          push (Aig.Lit.node (Aig.Network.fanin0 g id));
          push (Aig.Lit.node (Aig.Network.fanin1 g id))
        end;
        drain ()
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
      push (driver g i);
      drain ();
      cur := i :: !cur;
      if !count >= max_ands then flush ())
    pos;
  flush ();
  (* Past 3/2 of the group's own cone, a split multiplies the work it
     was meant to divide (a multiplier's cone lands in every chunk). *)
  if 2 * !copied > 3 * ands then [ pos ] else List.rev !chunks

(* Pack small groups into shards of roughly [max_ands] AND nodes; a group
   larger than that is split at PO boundaries when the split pays, and
   otherwise becomes one oversized shard.  Constant groups are decided
   here: a constant-true PO settles the whole miter, constant-false POs
   simply drop out of the plan. *)
let build ~max_ands g =
  let max_ands = max 1 max_ands in
  let gs = groups g in
  let n_groups = List.length gs in
  let consts, gs = List.partition (fun (pos, _) -> driver g (List.hd pos) = 0) gs in
  match
    List.find_opt
      (fun i -> Aig.Network.po g i = Aig.Lit.const_true)
      (List.concat_map fst consts)
  with
  | Some bad ->
      (* A constant-true PO: disproved by any assignment. *)
      let cex = Array.make (Aig.Network.num_pis g) false in
      {
        shards = [];
        groups = n_groups;
        split_groups = 0;
        early = Some (Simsweep.Engine.Disproved (cex, bad));
      }
  | None ->
      let split_groups = ref 0 in
      let chunks = ref [] (* reversed list of PO lists *) in
      let cur = ref [] (* reversed list of packed groups *) in
      let cur_ands = ref 0 in
      let flush () =
        if !cur <> [] then begin
          chunks := List.concat (List.rev !cur) :: !chunks;
          cur := [];
          cur_ands := 0
        end
      in
      List.iter
        (fun (group, ands) ->
          if ands > max_ands then begin
            let split = split_group g ~max_ands ~ands group in
            if List.compare_length_with split 1 > 0 then incr split_groups;
            flush ();
            List.iter (fun chunk -> chunks := chunk :: !chunks) split
          end
          else begin
            cur := group :: !cur;
            cur_ands := !cur_ands + ands;
            if !cur_ands >= max_ands then flush ()
          end)
        gs;
      flush ();
      let shards =
        List.rev !chunks
        |> List.mapi (fun id pos ->
               let pos = List.sort compare pos in
               let sub, pi_origin = Aig.Cone.restrict g pos in
               { id; pos; sub; pi_origin; ands = Aig.Network.num_ands sub })
      in
      { shards; groups = n_groups; split_groups = !split_groups; early = None }

let lift ~num_pis sh sub_cex po =
  let cex = Array.make num_pis false in
  Array.iteri (fun j orig -> cex.(orig) <- sub_cex.(j)) sh.pi_origin;
  Simsweep.Engine.Disproved (cex, List.nth sh.pos po)
