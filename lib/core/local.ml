type result = { proved : (int * Aig.Lit.t) list; pairs_tried : int; cuts_checked : int }

let run_pass (cfg : Config.t) ~pass ~pool ~stats ?cancel g classes =
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
  let proved = ref [] in
  let pairs_tried = ref 0 in
  let cuts_checked = ref 0 in
  let l = ref 1 in
  (* Poll (not just read the flag) at level boundaries so an armed
     deadline latches; the window checks use the flag-only check. *)
  while !l <= !max_el && not (Par.Cancel.poll_opt cancel) do
    let nodes = Array.of_list buckets.(!l) in
    (* Each pair's outcome, by index in [nodes]: whether some window
       proved it, and the windows it checked. *)
    let outcome = Array.make (Array.length nodes) None in
    (* Cut enumeration and selection for the level's nodes, and each pair
       checked on its common cuts where they are made: Eq. 2 puts a
       representative on a lower level, so its priority cuts are final
       here. *)
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
        if r <> m then begin
          (* A constant candidate may use any cut of [m]: its local
             function must be constant. *)
          let windows, b =
            if r = 0 then (prio.(m), -1)
            else (Cuts.Enumerate.common_cuts ~k_l:cfg.k_l prio.(r) prio.(m), r)
          in
          let st = Exhaustive.new_stats () in
          (* A mismatch is inconclusive: the differing patterns may be
             SDCs. *)
          let ok =
            Exhaustive.prove_on_windows st ?cancel g ~windows ~a:m ~b
              ~compl_:compl_arr.(m)
          in
          outcome.(k) <- Some (ok, st)
        end);
    Array.iteri
      (fun k m ->
        match outcome.(k) with
        | None -> ()
        | Some (ok, st) ->
            incr pairs_tried;
            cuts_checked := !cuts_checked + st.Exhaustive.windows;
            Exhaustive.add_stats ~into:stats st;
            if ok then begin
              let r = repr_arr.(m) and c = compl_arr.(m) in
              let target =
                if r = 0 then Aig.Lit.xor_compl Aig.Lit.const_false c
                else Aig.Lit.make r c
              in
              proved := (m, target) :: !proved
            end)
      nodes;
    incr l
  done;
  { proved = !proved; pairs_tried = !pairs_tried; cuts_checked = !cuts_checked }
