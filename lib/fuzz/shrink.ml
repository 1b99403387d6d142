(* Delta-debugging for failing miters.  Three reduction moves, applied to
   a fixpoint under a predicate-evaluation budget:

   1. drop POs (try each single PO, then dropping one at a time);
   2. re-extract the cone of the kept POs (prunes dangling logic and
      unused PIs after substitutions);
   3. forward each AND node to a fanin or a constant, highest id first.

   Every candidate must both shrink the miter and keep [fails] true, so
   the result still reproduces the original failure. *)

type budget = { mutable left : int }

let check budget fails g =
  if budget.left <= 0 then false
  else begin
    budget.left <- budget.left - 1;
    fails g
  end

let size g = Aig.Network.num_ands g
let restrict g keep = fst (Aig.Cone.restrict g keep)

let try_po_drop budget fails g =
  let npos = Aig.Network.num_pos g in
  if npos <= 1 then None
  else begin
    let result = ref None in
    (* Single POs first: the biggest possible cut. *)
    let po = ref 0 in
    while !result = None && !po < npos do
      let cand = restrict g [ !po ] in
      if check budget fails cand then result := Some cand;
      incr po
    done;
    (* Otherwise drop POs one at a time. *)
    if !result = None then begin
      let keep = ref (List.init npos Fun.id) in
      let changed = ref false in
      let i = ref 0 in
      while !i < npos do
        if List.length !keep > 1 && List.mem !i !keep then begin
          let cand_keep = List.filter (fun j -> j <> !i) !keep in
          let cand = restrict g cand_keep in
          if check budget fails cand then begin
            keep := cand_keep;
            changed := true
          end
        end;
        incr i
      done;
      if !changed then result := Some (restrict g !keep)
    end;
    !result
  end

let try_node_sweep budget fails g =
  let cur = ref g in
  let progress = ref false in
  (* Highest ids first: killing a root-side node deletes its whole
     dangling cone in one rebuild. *)
  let n = ref (Aig.Network.num_nodes !cur - 1) in
  while !n >= 1 && budget.left > 0 do
    let g = !cur in
    if !n < Aig.Network.num_nodes g && Aig.Network.is_and g !n then begin
      let replacements =
        [
          Aig.Network.fanin0 g !n;
          Aig.Network.fanin1 g !n;
          Aig.Lit.const_false;
          Aig.Lit.const_true;
        ]
      in
      let rec try_rep = function
        | [] -> ()
        | by :: rest ->
            let cand = Surgery.substitute g ~node:!n ~by in
            if size cand < size g && check budget fails cand then begin
              cur := cand;
              progress := true
            end
            else try_rep rest
      in
      try_rep replacements
    end;
    decr n
  done;
  if !progress then Some !cur else None

let shrink ?(budget = 400) ~fails g =
  if not (fails g) then (g, 0)
  else begin
    let b = { left = budget } in
    let cur = ref g in
    let continue_ = ref true in
    while !continue_ && b.left > 0 do
      continue_ := false;
      (match try_po_drop b fails !cur with
      | Some g' ->
          cur := g';
          continue_ := true
      | None -> ());
      (* Prune logic orphaned by substitutions and PO drops. *)
      let pruned =
        restrict !cur (List.init (Aig.Network.num_pos !cur) Fun.id)
      in
      if size pruned < size !cur && check b fails pruned then begin
        cur := pruned;
        continue_ := true
      end;
      (match try_node_sweep b fails !cur with
      | Some g' ->
          cur := g';
          continue_ := true
      | None -> ())
    done;
    (!cur, budget - b.left)
  end
