module P = Simsweep.Partition

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

(* Pack small groups into shards of roughly [max_ands] AND nodes; a group
   larger than that is split at PO boundaries when the split pays, and
   otherwise becomes one oversized shard.  Constant groups are decided
   here: a constant-true PO settles the whole miter, constant-false POs
   simply drop out of the plan. *)
let build ~max_ands g =
  let max_ands = max 1 max_ands in
  let gs = P.sized_groups g in
  let n_groups = List.length gs in
  let early = ref None in
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
      if !early = None then
        match P.const_verdict g group with
        | Some Simsweep.Engine.Proved -> ()
        | Some verdict -> early := Some verdict
        | None ->
            if ands > max_ands then begin
              let split = P.split_group g ~max_ands ~ands group in
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
  match !early with
  | Some _ as early ->
      { shards = []; groups = n_groups; split_groups = !split_groups; early }
  | None ->
      let shards =
        List.rev !chunks
        |> List.mapi (fun id pos ->
               let pos = List.sort compare pos in
               let sub, pi_origin = P.extract g pos in
               { id; pos; sub; pi_origin; ands = Aig.Network.num_ands sub })
      in
      { shards; groups = n_groups; split_groups = !split_groups; early = None }

let lift ~num_pis sh sub_cex po =
  let cex = Array.make num_pis false in
  Array.iteri (fun j orig -> cex.(orig) <- sub_cex.(j)) sh.pi_origin;
  Simsweep.Engine.Disproved (cex, List.nth sh.pos po)
