(* The traced flow: the default `cec` flow (Engine.check_with_fallback with
   Config.scaled and class transfer) re-run step by step from the
   benchmark, so that each call into a library layer can be timed.

   The P, G and L phases are replayed here through the same public
   functions the engine calls, in the same order and with the same
   arguments, including the 512-pair G batches the engine uses when it
   holds a cancellation token.  Local.run_pass is copied rather than
   called, because it has no hook to time its steps.  The remaining SAT
   tail is Sat.Sweep.check on the replayed miter.  The replay must prove
   exactly the outputs and pairs the engine proves; the caller checks
   that against the engine's own Stats. *)

(* Leaf spans: total seconds and calls per layer name. *)
type spans = (string, float ref * int ref) Hashtbl.t

let add (sp : spans) name dt =
  match Hashtbl.find_opt sp name with
  | Some (t, n) ->
      t := !t +. dt;
      incr n
  | None -> Hashtbl.replace sp name (ref dt, ref 1)

let span sp name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  add sp name (Unix.gettimeofday () -. t0);
  r

let merge_into (dst : spans) (src : spans) =
  Hashtbl.iter
    (fun k (t, n) ->
      match Hashtbl.find_opt dst k with
      | Some (t', n') ->
          t' := !t' +. !t;
          n' := !n' + !n
      | None -> Hashtbl.replace dst k (ref !t, ref !n))
    src

let span_s (sp : spans) name = match Hashtbl.find_opt sp name with Some (t, _) -> !t | None -> 0.
let span_calls (sp : spans) name = match Hashtbl.find_opt sp name with Some (_, n) -> !n | None -> 0

(* Counters of the replay. *)
type counts = {
  mutable enum_nodes : int;  (** Cuts.Enumerate.node_cuts calls *)
  mutable prio_cuts : int;  (** priority cuts those calls returned *)
  mutable common_cuts : int;  (** common cuts generated for pairs *)
  mutable pairs_tried : int;
  mutable cuts_checked : int;
  mutable pos_proved : int;
  mutable global_proved : int;
  mutable local_proved : int;
}

let new_counts () =
  {
    enum_nodes = 0;
    prio_cuts = 0;
    common_cuts = 0;
    pairs_tried = 0;
    cuts_checked = 0;
    pos_proved = 0;
    global_proved = 0;
    local_proved = 0;
  }

let reduce_classes sp classes (r : Aig.Reduce.result) =
  span sp "eclass" (fun () ->
      Sim.Eclass.map_nodes classes (fun n ->
          let l = r.Aig.Reduce.node_map.(n) in
          if l < 0 then None else Some l))

(* --- G phase (mirrors Engine.global_phase) ------------------------------ *)

let global (cfg : Simsweep.Config.t) ~sp ~cnt ~pool ~arena ~stats ~cancel ~rng g =
  let ex_stats = stats.Simsweep.Stats.exhaustive in
  let sigs =
    span sp "psim" (fun () ->
        Sim.Psim.run ~stats:stats.Simsweep.Stats.psim g ~nwords:cfg.sim_words ~rng ~pool
          ~embed:[])
  in
  let classes = ref (span sp "eclass" (fun () -> Sim.Eclass.of_sigs g sigs ())) in
  let repl = Array.make (Aig.Network.num_nodes g) None in
  let merged = ref 0 and continue_ = ref true and iterations = ref 0 in
  while !continue_ && !iterations < 64 && not (Par.Cancel.poll cancel) do
    incr iterations;
    let candidates =
      span sp "support" (fun () ->
          let supports = Aig.Support.capped g ~cap:cfg.k_g in
          Sim.Eclass.pairs !classes
          |> List.filter_map (fun { Sim.Eclass.repr; other; compl_ } ->
                 if repl.(other) <> None then None
                 else
                   let s_repr = if repr = 0 then Some [||] else supports.(repr) in
                   match (s_repr, supports.(other)) with
                   | Some a, Some b -> (
                       match Aig.Support.union_capped ~cap:cfg.k_g a b with
                       | Some u -> Some (repr, other, compl_, u)
                       | None -> None)
                   | _ -> None)
          |> Array.of_list)
    in
    let n = Array.length candidates in
    if n = 0 then continue_ := false
    else begin
      let verdicts = Array.make n Simsweep.Exhaustive.Invalid in
      let base = ref 0 and stopped = ref false in
      while !base < n && not !stopped do
        let hi = min n (!base + 512) in
        let jobs () =
          List.init (hi - !base) (fun k ->
              let tag = !base + k in
              let repr, other, compl_, u = candidates.(tag) in
              {
                Simsweep.Exhaustive.inputs = u;
                pairs =
                  [ { Simsweep.Exhaustive.a = other; b = (if repr = 0 then -1 else repr); compl_; tag } ];
              })
        in
        let jobs =
          if cfg.window_merging then
            span sp "wmerge" (fun () -> Simsweep.Wmerge.merge ~k_s:cfg.k_g (jobs ()))
          else jobs ()
        in
        let batch =
          span sp "exhaustive" (fun () ->
              Simsweep.Exhaustive.run g ~pool ~memory_words:cfg.memory_words ~arena
                ~stats:ex_stats ~cancel ~jobs ~num_tags:n ())
        in
        Array.blit batch !base verdicts !base (hi - !base);
        base := hi;
        if !base < n && Par.Cancel.poll cancel then stopped := true
      done;
      let cexs = ref [] in
      Array.iteri
        (fun tag verdict ->
          let repr, other, compl_, _ = candidates.(tag) in
          match verdict with
          | Simsweep.Exhaustive.Proved ->
              if repl.(other) = None then begin
                repl.(other) <-
                  Some
                    (if repr = 0 then Aig.Lit.xor_compl Aig.Lit.const_false compl_
                     else Aig.Lit.make repr compl_);
                incr merged
              end
          | Simsweep.Exhaustive.Mismatch { pattern; inputs } ->
              cexs := span sp "cex" (fun () -> Sim.Cex.of_window_pattern g ~inputs ~pattern) :: !cexs
          | Simsweep.Exhaustive.Invalid -> ())
        verdicts;
      if !cexs = [] then continue_ := false
      else begin
        let sigs =
          span sp "psim" (fun () ->
              Sim.Psim.run ~stats:stats.Simsweep.Stats.psim g ~nwords:cfg.sim_words ~rng
                ~pool ~embed:!cexs)
        in
        classes := span sp "eclass" (fun () -> Sim.Eclass.refine !classes sigs)
      end
    end
  done;
  cnt.global_proved <- cnt.global_proved + !merged;
  if !merged = 0 then (g, !classes)
  else
    let r = span sp "reduce" (fun () -> Aig.Reduce.apply g ~repl) in
    (r.Aig.Reduce.network, reduce_classes sp !classes r)

(* --- one L pass (mirrors Local.run_pass) -------------------------------- *)

let pass (cfg : Simsweep.Config.t) ~sp ~cnt ~pass ~pool ~arena ~stats ~cancel g classes =
  let n = Aig.Network.num_nodes g in
  let repr_arr, compl_arr, fanouts, levels, max_el, buckets, prio =
    span sp "cuts.levels" (fun () ->
        let repr_arr = Array.init n Fun.id and compl_arr = Array.make n false in
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
        let fanouts = Aig.Network.fanout_counts g and levels = Aig.Network.levels g in
        let repr_of i = if Aig.Network.is_and g i then repr_arr.(i) else i in
        let el = Cuts.Enumerate.enum_levels g ~repr_of in
        let max_el = ref 0 in
        Aig.Network.iter_ands g (fun i -> if el.(i) > !max_el then max_el := el.(i));
        let buckets = Array.make (!max_el + 1) [] in
        Aig.Network.iter_ands g (fun i -> buckets.(el.(i)) <- i :: buckets.(el.(i)));
        let buckets = Array.map (fun b -> Array.of_list (List.rev b)) buckets in
        let prio = Array.make n [] in
        for i = 0 to Aig.Network.num_pis g - 1 do
          let p = Aig.Network.pi g i in
          prio.(p) <- [ Cuts.Cut.trivial p ]
        done;
        (repr_arr, compl_arr, fanouts, levels, !max_el, buckets, prio))
  in
  let ecfg = { Cuts.Enumerate.k_l = cfg.k_l; c = cfg.c } in
  let proved = ref [] and proved_mark = Array.make n false in
  let buffer = ref [] and buffered = ref 0 in
  let flush_s = ref 0. in
  let flush () =
    if !buffer <> [] then begin
      let t0 = Unix.gettimeofday () in
      let items = Array.of_list (List.rev !buffer) in
      buffer := [];
      buffered := 0;
      let jobs =
        Array.to_list items
        |> List.mapi (fun tag (cut, m, b, compl_) ->
               { Simsweep.Exhaustive.inputs = cut; pairs = [ { Simsweep.Exhaustive.a = m; b; compl_; tag } ] })
      in
      cnt.cuts_checked <- cnt.cuts_checked + Array.length items;
      let verdicts =
        span sp "exhaustive" (fun () ->
            Simsweep.Exhaustive.run g ~pool ~memory_words:cfg.memory_words ~arena ~stats
              ~cancel ~jobs ~num_tags:(Array.length items) ())
      in
      Array.iteri
        (fun tag verdict ->
          match verdict with
          | Simsweep.Exhaustive.Proved ->
              let _, m, b, compl_ = items.(tag) in
              if not proved_mark.(m) then begin
                proved_mark.(m) <- true;
                let target =
                  if b < 0 then Aig.Lit.xor_compl Aig.Lit.const_false compl_
                  else Aig.Lit.make b compl_
                in
                proved := (m, target) :: !proved
              end
          | Simsweep.Exhaustive.Mismatch _ | Simsweep.Exhaustive.Invalid -> ())
        verdicts;
      flush_s := !flush_s +. (Unix.gettimeofday () -. t0)
    end
  in
  let push cut m b compl_ =
    if !buffered >= cfg.cut_buffer_capacity then flush ();
    buffer := (cut, m, b, compl_) :: !buffer;
    incr buffered
  in
  let l = ref 1 in
  while !l <= max_el && not (Par.Cancel.poll cancel) do
    let nodes = buckets.(!l) in
    span sp "cuts.enum" (fun () ->
        Par.Pool.parallel_for pool ~start:0 ~stop:(Array.length nodes) (fun k ->
            let m = nodes.(k) in
            let sim_target =
              if cfg.similarity_selection && repr_arr.(m) <> m && repr_arr.(m) <> 0 then
                Some prio.(repr_arr.(m))
              else None
            in
            prio.(m) <-
              Cuts.Enumerate.node_cuts g ecfg ~pass ~fanouts ~levels ~prio ~sim_target m));
    (* Common-cut generation; buffer flushes inside it are timed as
       "exhaustive" and subtracted here, so the two spans do not overlap. *)
    let before = !flush_s in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun m ->
        cnt.enum_nodes <- cnt.enum_nodes + 1;
        cnt.prio_cuts <- cnt.prio_cuts + List.length prio.(m);
        let r = repr_arr.(m) in
        if r <> m then begin
          cnt.pairs_tried <- cnt.pairs_tried + 1;
          if r = 0 then List.iter (fun cut -> push cut m (-1) compl_arr.(m)) prio.(m)
          else begin
            let common = Cuts.Enumerate.common_cuts ~k_l:cfg.k_l prio.(r) prio.(m) in
            cnt.common_cuts <- cnt.common_cuts + List.length common;
            List.iter (fun cut -> push cut m r compl_arr.(m)) common
          end
        end)
      nodes;
    add sp "cuts.common" (Unix.gettimeofday () -. t0 -. (!flush_s -. before));
    incr l
  done;
  if not (Par.Cancel.is_set cancel) then flush ();
  !proved

(* --- L phases (mirrors Engine.local_phases) ----------------------------- *)

let local (cfg : Simsweep.Config.t) ~sp ~cnt ~pool ~arena ~stats ~cancel g classes =
  let g = ref g and classes = ref classes in
  let phase = ref 0 and progress = ref true in
  while
    !progress && !phase < cfg.max_local_phases
    && (not (Aig.Miter.solved !g))
    && not (Par.Cancel.poll cancel)
  do
    incr phase;
    let repl = Array.make (Aig.Network.num_nodes !g) None in
    let merged = ref 0 in
    List.iter
      (fun p ->
        let proved =
          span sp "local.pass" (fun () ->
              pass cfg ~sp ~cnt ~pass:p ~pool ~arena ~stats ~cancel !g !classes)
        in
        let dropped = Hashtbl.create 64 in
        List.iter
          (fun (m, target) ->
            if repl.(m) = None then begin
              repl.(m) <- Some target;
              incr merged;
              Hashtbl.replace dropped m ()
            end)
          proved;
        classes := span sp "eclass" (fun () -> Sim.Eclass.remove !classes dropped))
      cfg.passes;
    cnt.local_proved <- cnt.local_proved + !merged;
    if !merged = 0 then progress := false
    else begin
      let r = span sp "reduce" (fun () -> Aig.Reduce.apply !g ~repl) in
      g := r.Aig.Reduce.network;
      classes := reduce_classes sp !classes r
    end
  done;
  (!g, !classes)

(* --- P phase (mirrors Engine.po_phase) ------------------------------------ *)

let po_phase (cfg : Simsweep.Config.t) ~sp ~cnt ~pool ~arena ~stats ~cancel g =
  let num_pos = Aig.Network.num_pos g in
  match List.find_opt (fun i -> Aig.Network.po g i = Aig.Lit.const_true) (List.init num_pos Fun.id) with
  | Some i -> Error (Array.make (Aig.Network.num_pis g) false, i)
  | None ->
      (* Outputs whose support fits the threshold are simulated. *)
      let k_s, selected =
        span sp "support" (fun () ->
            let supports = Aig.Support.capped g ~cap:cfg.k_cap_p in
            let po_support i = supports.(Aig.Lit.node (Aig.Network.po g i)) in
            let all_simulatable =
              List.for_all (fun i -> po_support i <> None) (List.init num_pos Fun.id)
            in
            ( (if all_simulatable then cfg.k_cap_p else cfg.k_p),
              List.init num_pos Fun.id
              |> List.filter_map (fun i ->
                     if Aig.Network.po g i = Aig.Lit.const_false then None
                     else
                       match po_support i with
                       | Some s when all_simulatable || Array.length s <= cfg.k_p -> Some (i, s)
                       | _ -> None) ))
      in
      if selected = [] then Ok g
      else
        let job (i, s) =
          let l = Aig.Network.po g i in
          {
            Simsweep.Exhaustive.inputs = s;
            pairs =
              [ { Simsweep.Exhaustive.a = Aig.Lit.node l; b = -1; compl_ = Aig.Lit.is_compl l; tag = i } ];
          }
        in
        let jobs =
          if cfg.window_merging then
            span sp "wmerge" (fun () -> Simsweep.Wmerge.merge ~k_s (List.map job selected))
          else List.map job selected
        in
        let verdicts =
          span sp "exhaustive" (fun () ->
              Simsweep.Exhaustive.run g ~pool ~memory_words:cfg.memory_words ~arena ~stats ~cancel
                ~jobs ~num_tags:num_pos ())
        in
        let cex =
          List.find_map
            (fun (i, _) ->
              match verdicts.(i) with
              | Simsweep.Exhaustive.Mismatch { pattern; inputs } ->
                  Some (span sp "cex" (fun () -> Sim.Cex.of_window_pattern g ~inputs ~pattern), i)
              | _ -> None)
            selected
        in
        match cex with
        | Some c -> Error c
        | None ->
            let proved =
              List.filter (fun (i, _) -> verdicts.(i) = Simsweep.Exhaustive.Proved) selected
            in
            List.iter (fun (i, _) -> Aig.Network.set_po g i Aig.Lit.const_false) proved;
            cnt.pos_proved <- cnt.pos_proved + List.length proved;
            if proved = [] then Ok g
            else Ok (span sp "reduce" (fun () -> Aig.Reduce.sweep g)).Aig.Reduce.network

(* --- the whole flow ------------------------------------------------------ *)

let to_outcome = function
  | Sat.Sweep.Equivalent -> Simsweep.Engine.Proved
  | Sat.Sweep.Inequivalent (cex, po) -> Simsweep.Engine.Disproved (cex, po)
  | Sat.Sweep.Undecided -> Simsweep.Engine.Undecided

(* Returns the verdict and the SAT-tail stats (when the tail ran).  The
   spans "local.pass" contain "cuts.*" and the L-phase "exhaustive" time;
   every other span is a leaf of the flow. *)
let flow ~sp ~cnt ~pool ~cancel miter =
  let cfg = Simsweep.Config.scaled in
  assert (
    (not cfg.adaptive_passes) && (not cfg.rewrite_between_phases) && not cfg.distance_one_cex);
  let stats = Simsweep.Stats.create () in
  let arena = Simsweep.Arena.create ~words:cfg.memory_words in
  let ex_stats = stats.Simsweep.Stats.exhaustive in
  (* The P phase rewrites outputs in place, as the engine does on its copy. *)
  let g = span sp "copy" (fun () -> Aig.Network.copy miter) in
  match po_phase cfg ~sp ~cnt ~pool ~arena ~stats:ex_stats ~cancel g with
  | Error (cex, po) -> (Simsweep.Engine.Disproved (cex, po), None)
  | Ok g when Aig.Miter.solved g -> (Simsweep.Engine.Proved, None)
  | Ok g ->
      let rng = Sim.Rng.create ~seed:cfg.seed in
      let g, classes = global cfg ~sp ~cnt ~pool ~arena ~stats ~cancel ~rng g in
      if Aig.Miter.solved g then (Simsweep.Engine.Proved, None)
      else
        let g, classes = local cfg ~sp ~cnt ~pool ~arena ~stats:ex_stats ~cancel g classes in
        if Aig.Miter.solved g then (Simsweep.Engine.Proved, None)
        else if Par.Cancel.is_set cancel then (Simsweep.Engine.Undecided, None)
        else
          let o, st = span sp "sat" (fun () -> Sat.Sweep.check ~classes ~cancel ~pool g) in
          (to_outcome o, Some st)
