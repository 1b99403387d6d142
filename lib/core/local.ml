type result = { proved : (int * Aig.Lit.t) list; pairs_tried : int; cuts_checked : int }

let run_pass (cfg : Config.t) ~pass ~pool ~arena ~stats ?cancel g classes =
  let n = Aig.Network.num_nodes g in
  (* Class structure as arrays for O(1) lookup. *)
  let repr_arr = Array.init n (fun i -> i) in
  let compl_arr = Array.make n false in
  List.iter
    (fun c ->
      let r, _ = c.(0) in
      Array.iter
        (fun (m, ph) ->
          if m <> r then begin
            repr_arr.(m) <- r;
            compl_arr.(m) <- ph
          end)
        c)
    (Sim.Eclass.classes classes);
  let fanouts = Aig.Network.fanout_counts g in
  let levels = Aig.Network.levels g in
  let repr_of i = if Aig.Network.is_and g i then repr_arr.(i) else i in
  let el = Cuts.Enumerate.enum_levels g ~repr_of in
  let max_el = ref 0 in
  Aig.Network.iter_ands g (fun i -> if el.(i) > !max_el then max_el := el.(i));
  let buckets = Array.make (!max_el + 1) [] in
  Aig.Network.iter_ands g (fun i -> buckets.(el.(i)) <- i :: buckets.(el.(i)));
  Array.iteri (fun l b -> buckets.(l) <- List.rev b) buckets;
  let prio = Array.make n [] in
  for i = 0 to Aig.Network.num_pis g - 1 do
    let p = Aig.Network.pi g i in
    prio.(p) <- [ Cuts.Cut.trivial p ]
  done;
  let ecfg = { Cuts.Enumerate.k_l = cfg.k_l; c = cfg.c } in
  (* The common-cut buffer of Algorithm 2 and its flushing. *)
  let proved = ref [] in
  let proved_mark = Array.make n false in
  let buffer = ref [] in
  let buffered = ref 0 in
  let pairs_tried = ref 0 in
  let cuts_checked = ref 0 in
  let flush () =
    if !buffer <> [] then begin
      let items = Array.of_list (List.rev !buffer) in
      buffer := [];
      buffered := 0;
      let jobs =
        Array.to_list items
        |> List.mapi (fun tag (cut, m, b, compl_) ->
               { Exhaustive.inputs = cut; pairs = [ { Exhaustive.a = m; b; compl_; tag } ] })
      in
      cuts_checked := !cuts_checked + Array.length items;
      let verdicts =
        Exhaustive.run g ~pool ~memory_words:cfg.memory_words ~arena ~stats
          ?cancel ~jobs ~num_tags:(Array.length items) ()
      in
      Array.iteri
        (fun tag verdict ->
          match verdict with
          | Exhaustive.Proved ->
              let _, m, b, compl_ = items.(tag) in
              if not proved_mark.(m) then begin
                proved_mark.(m) <- true;
                let target =
                  if b < 0 then Aig.Lit.xor_compl Aig.Lit.const_false compl_
                  else Aig.Lit.make b compl_
                in
                proved := (m, target) :: !proved
              end
          | Exhaustive.Mismatch _ | Exhaustive.Invalid ->
              (* Inconclusive: the differing patterns may be SDCs. *)
              ())
        verdicts
    end
  in
  let push cut m b compl_ =
    if !buffered >= cfg.cut_buffer_capacity then flush ();
    buffer := (cut, m, b, compl_) :: !buffer;
    incr buffered
  in
  let common = Array.make n [] in
  let l = ref 1 in
  (* Poll (not just read the flag) at level boundaries so an armed
     deadline latches; inner batch guards use the flag-only check. *)
  while !l <= !max_el && not (Par.Cancel.poll_opt cancel) do
    let nodes = Array.of_list buckets.(!l) in
    (* Parallel cut enumeration and selection for the level's nodes, and
       each pair's common cuts: Eq. 2 puts a representative on a lower
       level, so its priority cuts are final here. *)
    Par.Pool.parallel_for pool ~start:0 ~stop:(Array.length nodes) (fun k ->
        let m = nodes.(k) in
        let r = repr_arr.(m) in
        let sim_target =
          if cfg.similarity_selection && r <> m && r <> 0 then Some prio.(r)
          else None
        in
        prio.(m) <-
          Cuts.Enumerate.node_cuts g ecfg ~pass ~fanouts ~levels ~prio
            ~sim_target m;
        if r <> m && r <> 0 then
          common.(m) <- Cuts.Enumerate.common_cuts ~k_l:cfg.k_l prio.(r) prio.(m));
    (* Buffer the level's common cuts in node order. *)
    Array.iter
      (fun m ->
        let r = repr_arr.(m) in
        if r <> m then begin
          incr pairs_tried;
          if r = 0 then
            (* Constant candidates: any cut of [m] is usable; the local
               function must be constant. *)
            List.iter (fun cut -> push cut m (-1) compl_arr.(m)) prio.(m)
          else List.iter (fun cut -> push cut m r compl_arr.(m)) common.(m)
        end)
      nodes;
    incr l
  done;
  if not (Par.Cancel.is_set_opt cancel) then flush ();
  { proved = !proved; pairs_tried = !pairs_tried; cuts_checked = !cuts_checked }
