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

(* Per-domain scratch of [node_cuts]: the merge under test, the signatures
   of the second fanin's cuts and of the similarity target, and the kept
   cuts, best first, with their scores. *)
type scratch = {
  mutable cand : int array;
  mutable vsig : int array;
  mutable tsig : int array;
  mutable kcut : Cut.t array;
  mutable ksim : float array;
  mutable kfo : int array;
  mutable klv : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        cand = [||];
        vsig = [||];
        tsig = [||];
        kcut = [||];
        ksim = [||];
        kfo = [||];
        klv = [||];
      })

let scratch cfg ~nv ~nt =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.cand < cfg.k_l then sc.cand <- Array.make cfg.k_l 0;
  if Array.length sc.vsig < nv then sc.vsig <- Array.make nv 0;
  if Array.length sc.tsig < nt then sc.tsig <- Array.make nt 0;
  if Array.length sc.kcut < cfg.c then begin
    sc.kcut <- Array.make cfg.c [||];
    sc.ksim <- Array.make cfg.c 0.;
    sc.kfo <- Array.make cfg.c 0;
    sc.klv <- Array.make cfg.c 0
  end;
  sc

(* The sorted union of [a] and [b] into [buf]: its size, or [-1] when it
   has more than [cap] leaves. *)
let merge_into buf ~cap a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !k >= 0 && (!i < la || !j < lb) do
    let x = if !i < la then a.(!i) else max_int in
    let y = if !j < lb then b.(!j) else max_int in
    if x <= y then incr i;
    if y <= x then incr j;
    if !k = cap then k := -1
    else begin
      buf.(!k) <- Int.min x y;
      incr k
    end
  done;
  !k

(* [Cut.compare] between the first [len] leaves of [buf] and [cut]. *)
let compare_buf buf len (cut : Cut.t) =
  let lc = Array.length cut in
  if len <> lc then Int.compare len lc
  else begin
    let i = ref 0 in
    while !i < len && buf.(!i) = cut.(!i) do
      incr i
    done;
    if !i = len then 0 else Int.compare buf.(!i) cut.(!i)
  end

(* [Cut.similarity] of the merge in [sc.cand], whose signature is [sg],
   against [targets], summed in the same order.  A target sharing no
   signature bit with the merge shares no leaf, and its term would add
   [0.]: it is skipped. *)
let similarity sc len ~sg targets =
  let cand = sc.cand in
  let acc = ref 0. and j = ref 0 and rest = ref targets in
  while
    match !rest with
    | [] -> false
    | t :: tl ->
        if sg land sc.tsig.(!j) <> 0 then begin
          let lt = Array.length t in
          let a = ref 0 and b = ref 0 and inter = ref 0 in
          while !a < len && !b < lt do
            let x = cand.(!a) and y = t.(!b) in
            if x = y then begin
              incr a;
              incr b;
              incr inter
            end
            else if x < y then incr a
            else incr b
          done;
          acc := !acc +. (float_of_int !inter /. float_of_int (len + lt - !inter))
        end;
        incr j;
        rest := tl;
        true
  do
    ()
  done;
  !acc

(* Score the merge in [sc.cand] and insert it among the [nkept] kept cuts,
   ordered by similarity (higher first), then the pass criteria, then
   [Cut.compare]: the order of a stable sort of the deduplicated candidates
   by score.  An equal cut has an equal score, so a duplicate meets it as
   its neighbour and is dropped.  [sg] is the merge's signature.  Returns
   the new count. *)
let consider sc cfg ~pass ~fanouts ~levels ~targets ~sg len nkept =
  let cand = sc.cand in
  let s = match targets with [] -> 0. | _ -> similarity sc len ~sg targets in
  let fo = ref 0 and lv = ref 0 in
  for i = 0 to len - 1 do
    fo := !fo + fanouts.(cand.(i));
    lv := !lv + levels.(cand.(i))
  done;
  let fo = !fo and lv = !lv in
  (* The insertion point: past every kept cut the merge does not beat.
     The loop is written out, as a local [beats] closure would box [s]. *)
  let i = ref nkept and beaten = ref true in
  while !beaten && !i > 0 do
    let k = !i - 1 in
    let r = Float.compare sc.ksim.(k) s in
    let better =
      r < 0
      || r = 0
         &&
         let kc = sc.kcut.(k) in
         let r =
           Criteria.compare pass ~fanout:fo ~size:len ~level:lv ~fanout':sc.kfo.(k)
             ~size':(Array.length kc) ~level':sc.klv.(k)
         in
         r < 0 || (r = 0 && compare_buf cand len kc < 0)
    in
    if better then i := k else beaten := false
  done;
  let i = !i in
  if i >= cfg.c || (i > 0 && compare_buf cand len sc.kcut.(i - 1) = 0) then nkept
  else begin
    let last = Int.min nkept (cfg.c - 1) in
    let n = last - i in
    Array.blit sc.kcut i sc.kcut (i + 1) n;
    Array.blit sc.ksim i sc.ksim (i + 1) n;
    Array.blit sc.kfo i sc.kfo (i + 1) n;
    Array.blit sc.klv i sc.klv (i + 1) n;
    sc.kcut.(i) <- Array.sub cand 0 len;
    sc.ksim.(i) <- s;
    sc.kfo.(i) <- fo;
    sc.klv.(i) <- lv;
    last + 1
  end

let fill_signatures dst cuts = List.iteri (fun j cut -> dst.(j) <- Cut.signature cut) cuts

let node_cuts g cfg ~pass ~fanouts ~levels ~prio ~sim_target n =
  if not (Aig.Network.is_and g n) then invalid_arg "Enumerate.node_cuts: not an AND";
  let n0 = Aig.Lit.node (Aig.Network.fanin0 g n) in
  let n1 = Aig.Lit.node (Aig.Network.fanin1 g n) in
  let us = Cut.trivial n0 :: prio.(n0) and vs = Cut.trivial n1 :: prio.(n1) in
  let targets = Option.value sim_target ~default:[] in
  let sc = scratch cfg ~nv:(List.length vs) ~nt:(List.length targets) in
  fill_signatures sc.vsig vs;
  fill_signatures sc.tsig targets;
  (* Every merge [u ∪ v] within [k_l] leaves is scored straight from the
     scratch buffer; a pair whose signatures already show more than [k_l]
     distinct leaves is rejected before it is merged. *)
  let nkept = ref 0 in
  List.iter
    (fun u ->
      let su = Cut.signature u in
      List.iteri
        (fun j v ->
          (* A union's signature is the union of the signatures. *)
          let sg = su lor sc.vsig.(j) in
          if not (Cut.sig_exceeds ~cap:cfg.k_l sg) then begin
            let len = merge_into sc.cand ~cap:cfg.k_l u v in
            if len >= 0 then
              nkept := consider sc cfg ~pass ~fanouts ~levels ~targets ~sg len !nkept
          end)
        vs)
    us;
  List.init !nkept (Array.get sc.kcut)

(* All merges [u ∪ v] of [cuts_r × cuts_n] within [k_l] leaves,
   deduplicated and in [Cut.compare] order.  A pair whose signatures
   already show more than [k_l] distinct leaves is rejected before
   [Cut.merge] runs. *)
let common_cuts ~k_l cuts_r cuts_n =
  let vs = Array.of_list cuts_n in
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
    cuts_r;
  List.sort_uniq Cut.compare !acc
