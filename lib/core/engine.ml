let src = Logs.Src.create "simsweep.engine" ~doc:"simulation-based CEC engine"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome = Proved | Disproved of Sim.Cex.t * int | Undecided

let of_sat_outcome = function
  | Sat.Sweep.Equivalent -> Proved
  | Sat.Sweep.Inequivalent (cex, po) -> Disproved (cex, po)
  | Sat.Sweep.Undecided -> Undecided

type run_result = {
  outcome : outcome;
  reduced : Aig.Network.t;
  classes : Sim.Eclass.t option;
  stats : Stats.t;
  initial_size : int;
  reduced_size : int;
}

type trace_step = {
  trace_phase : [ `P | `G | `L of int ];
  trace_pos : int list;
  trace_merges : (int * Aig.Lit.t) list;
}

let reduction_percent r =
  if r.initial_size = 0 then 100.
  else
    100.
    *. (1. -. (float_of_int r.reduced_size /. float_of_int r.initial_size))

(* --- committing proofs ----------------------------------------------------- *)

let apply_step g step =
  match step.trace_phase with
  | `P ->
      List.iter
        (fun i -> Aig.Network.set_po g i Aig.Lit.const_false)
        step.trace_pos;
      Aig.Reduce.sweep g
  | `G | `L _ ->
      let repl = Array.make (Aig.Network.num_nodes g) None in
      List.iter (fun (n, l) -> repl.(n) <- Some l) step.trace_merges;
      Aig.Reduce.apply g ~repl

(* The step of a G or L phase: every node of [repl] merged, in node
   order. *)
let merge_step phase repl =
  let merges = ref [] in
  for n = Array.length repl - 1 downto 0 do
    Option.iter (fun l -> merges := (n, l) :: !merges) repl.(n)
  done;
  { trace_phase = phase; trace_pos = []; trace_merges = !merges }

(* Every phase commits its proofs the same way: report the step to [trace],
   apply it, and return the reduced miter with the map that carries the
   equivalence classes over to it. *)
let commit ~trace g step =
  Option.iter (fun f -> f step) trace;
  let r = apply_step g step in
  let remap classes =
    Sim.Eclass.map_nodes classes (fun n ->
        let l = r.Aig.Reduce.node_map.(n) in
        if l < 0 then None else Some l)
  in
  (r.Aig.Reduce.network, remap)

(* Check single-pair windows, each given by its inputs and its pair, in one
   window-merged exhaustive batch. *)
let check_windows (cfg : Config.t) ~pool ~arena ~(stats : Stats.t) ?cancel
    ~k_s ~num_tags g windows =
  let jobs =
    List.map (fun (inputs, pair) -> { Exhaustive.inputs; pairs = [ pair ] }) windows
  in
  let jobs = if cfg.window_merging then Wmerge.merge ~k_s jobs else jobs in
  Exhaustive.run g ~pool ~memory_words:cfg.memory_words ~arena
    ~stats:stats.Stats.exhaustive ?cancel ~jobs ~num_tags ()

(* --- P phase: PO checking ------------------------------------------------ *)

(* Returns [Ok g'] (reduced miter) or [Error cex_po]. *)
let po_phase (cfg : Config.t) ~pool ~arena ~(stats : Stats.t) ?cancel ~trace g =
  (* A PO already reduced to constant true is disproved by any assignment. *)
  let const_true_po = ref None in
  for i = Aig.Network.num_pos g - 1 downto 0 do
    if Aig.Network.po g i = Aig.Lit.const_true then const_true_po := Some i
  done;
  match !const_true_po with
  | Some i -> Error (Array.make (Aig.Network.num_pis g) false, i)
  | None ->
  let supports = Aig.Support.capped g ~cap:cfg.k_cap_p in
  let po_support i =
    let l = Aig.Network.po g i in
    supports.(Aig.Lit.node l)
  in
  let num_pos = Aig.Network.num_pos g in
  let all_simulatable =
    let ok = ref true in
    for i = 0 to num_pos - 1 do
      if po_support i = None then ok := false
    done;
    !ok
  in
  let k_s = if all_simulatable then cfg.k_cap_p else cfg.k_p in
  let selected =
    List.init num_pos Fun.id
    |> List.filter_map (fun i ->
           if Aig.Network.po g i = Aig.Lit.const_false then None
           else
             match po_support i with
             | Some s when all_simulatable || Array.length s <= cfg.k_p ->
                 Some (i, s)
             | _ -> None)
  in
  if selected = [] then Ok g
  else begin
    Log.debug (fun m ->
        m "P phase: %d of %d POs simulatable (one-shot: %b)"
          (List.length selected) num_pos all_simulatable);
    let verdicts =
      check_windows cfg ~pool ~arena ~stats ?cancel ~k_s ~num_tags:num_pos g
        (List.map
           (fun (i, s) ->
             let l = Aig.Network.po g i in
             ( s,
               {
                 Exhaustive.a = Aig.Lit.node l;
                 b = -1;
                 compl_ = Aig.Lit.is_compl l;
                 tag = i;
               } ))
           selected)
    in
    (* A mismatch on a PO is a real counter-example. *)
    let cex =
      List.find_map
        (fun (i, _) ->
          match verdicts.(i) with
          | Exhaustive.Mismatch { pattern; inputs } ->
              Some (Sim.Cex.of_window_pattern g ~inputs ~pattern, i)
          | _ -> None)
        selected
    in
    match cex with
    | Some (c, i) -> Error (c, i)
    | None ->
        let pos =
          List.filter_map
            (fun (i, _) ->
              match verdicts.(i) with Exhaustive.Proved -> Some i | _ -> None)
            selected
        in
        stats.Stats.pos_proved <- stats.Stats.pos_proved + List.length pos;
        Log.debug (fun m -> m "P phase: proved %d POs" (List.length pos));
        if pos = [] then Ok g
        else
          let step = { trace_phase = `P; trace_pos = pos; trace_merges = [] } in
          Ok (fst (commit ~trace g step))
  end

(* --- G phase: global function checking ----------------------------------- *)

(* The engine stops early when its cancellation token fires: it was set
   or its deadline expired.  The stats record it, so a cut-short run is
   distinguishable from one that converged. *)
let stopping ?cancel ~(stats : Stats.t) () =
  match cancel with
  | Some c when Par.Cancel.poll c ->
      stats.Stats.cancelled <- true;
      true
  | _ -> false

(* Returns the reduced miter and the carried classes. *)
let global_phase (cfg : Config.t) ~pool ~arena ~(stats : Stats.t) ?cancel ~rng
    ~trace g =
  let sigs =
    Sim.Psim.run ~stats:stats.Stats.psim g ~nwords:cfg.sim_words ~rng ~pool
      ~embed:[]
  in
  let classes = ref (Sim.Eclass.of_sigs g sigs ()) in
  let repl = Array.make (Aig.Network.num_nodes g) None in
  let merged = ref 0 in
  let continue_ = ref true in
  let iterations = ref 0 in
  while !continue_ && !iterations < 64 && not (stopping ?cancel ~stats ()) do
    incr iterations;
    stats.Stats.g_iterations <- stats.Stats.g_iterations + 1;
    let supports = Aig.Support.capped g ~cap:cfg.k_g in
    let candidates =
      Sim.Eclass.pairs !classes
      |> List.filter_map (fun { Sim.Eclass.repr; other; compl_ } ->
             if repl.(other) <> None then None
             else
               let s_other = supports.(other) in
               let s_repr = if repr = 0 then Some [||] else supports.(repr) in
               match (s_repr, s_other) with
               | Some a, Some b -> (
                   match Aig.Support.union_capped ~cap:cfg.k_g a b with
                   | Some u -> Some (repr, other, compl_, u)
                   | None -> None)
               | _ -> None)
    in
    if candidates = [] then continue_ := false
    else begin
      let candidates = Array.of_list candidates in
      let n = Array.length candidates in
      stats.Stats.g_candidates <- stats.Stats.g_candidates + n;
      (* Without a cancel token the whole candidate set is one batch (the
         best window-merging opportunities); with one it is split into
         bounded batches with a stop check between them, so one huge batch
         cannot blow far past a deadline. *)
      let batch_cap = match cancel with None -> n | Some _ -> 512 in
      let verdicts = Array.make n Exhaustive.Invalid in
      let base = ref 0 in
      let stopped = ref false in
      while !base < n && not !stopped do
        let hi = min n (!base + batch_cap) in
        let batch =
          check_windows cfg ~pool ~arena ~stats ?cancel ~k_s:cfg.k_g
            ~num_tags:n g
            (List.init (hi - !base) (fun k ->
                 let tag = !base + k in
                 let repr, other, compl_, u = candidates.(tag) in
                 ( u,
                   {
                     Exhaustive.a = other;
                     b = (if repr = 0 then -1 else repr);
                     compl_;
                     tag;
                   } )))
        in
        Array.blit batch !base verdicts !base (hi - !base);
        base := hi;
        if !base < n && stopping ?cancel ~stats () then stopped := true
      done;
      let cexs = ref [] in
      Array.iteri
        (fun tag verdict ->
          let repr, other, compl_, _ = candidates.(tag) in
          match verdict with
          | Exhaustive.Proved ->
              if repl.(other) = None then begin
                repl.(other) <- Some (Aig.Lit.make repr compl_);
                incr merged
              end
          | Exhaustive.Mismatch { pattern; inputs } ->
              let cex = Sim.Cex.of_window_pattern g ~inputs ~pattern in
              cexs := cex :: !cexs;
              if cfg.distance_one_cex then
                cexs := Sim.Cex.distance_one ~limit:8 cex @ !cexs
          | Exhaustive.Invalid -> ())
        verdicts;
      stats.Stats.cex_found <- stats.Stats.cex_found + List.length !cexs;
      if !cexs = [] then continue_ := false
      else begin
        (* Refine the classes with the counter-example patterns. *)
        stats.Stats.g_refinements <- stats.Stats.g_refinements + 1;
        let sigs =
          Sim.Psim.run ~stats:stats.Stats.psim g ~nwords:cfg.sim_words ~rng
            ~pool ~embed:!cexs
        in
        classes := Sim.Eclass.refine !classes sigs
      end
    end
  done;
  stats.Stats.pairs_proved_global <- stats.Stats.pairs_proved_global + !merged;
  Log.debug (fun m ->
      m "G phase: %d pairs merged in %d refinement iterations" !merged !iterations);
  if !merged = 0 then (g, !classes)
  else
    let g, remap = commit ~trace g (merge_step `G repl) in
    (g, remap !classes)

(* --- L phases: repeated local function checking --------------------------- *)

let local_phases (cfg : Config.t) ~pool ~(stats : Stats.t) ?cancel ~rng
    ~trace g classes =
  let g = ref g and classes = ref classes in
  let phase = ref 0 in
  let progress = ref true in
  (* §V extension: passes found ineffective are disabled on the fly. *)
  let active_passes = ref cfg.passes in
  while
    !progress && !phase < cfg.max_local_phases
    && (not (Aig.Miter.solved !g))
    && not (stopping ?cancel ~stats ())
  do
    incr phase;
    stats.Stats.local_phases <- stats.Stats.local_phases + 1;
    let repl = Array.make (Aig.Network.num_nodes !g) None in
    let merged = ref 0 in
    let surviving = ref [] in
    List.iter
      (fun pass ->
        let result =
          Local.run_pass cfg ~pass ~pool ~stats:stats.Stats.exhaustive
            ?cancel !g !classes
        in
        stats.Stats.local_pairs_tried <-
          stats.Stats.local_pairs_tried + result.Local.pairs_tried;
        stats.Stats.local_cuts_checked <-
          stats.Stats.local_cuts_checked + result.Local.cuts_checked;
        let dropped = Hashtbl.create 64 in
        let pass_merged = ref 0 in
        List.iter
          (fun (m, target) ->
            if repl.(m) = None then begin
              repl.(m) <- Some target;
              incr merged;
              incr pass_merged;
              Hashtbl.replace dropped m ()
            end)
          result.Local.proved;
        if (not cfg.adaptive_passes) || !pass_merged > 0 then
          surviving := pass :: !surviving;
        classes := Sim.Eclass.remove !classes dropped)
      !active_passes;
    if cfg.adaptive_passes && !surviving <> [] then
      active_passes := List.rev !surviving;
    stats.Stats.pairs_proved_local <- stats.Stats.pairs_proved_local + !merged;
    Log.debug (fun m ->
        m "L phase %d: %d pairs merged, %d AND nodes remain" !phase !merged
          (Aig.Network.num_ands !g));
    if !merged = 0 then progress := false
    else begin
      let g', remap = commit ~trace !g (merge_step (`L !phase) repl) in
      g := g';
      classes := remap !classes;
      (* §V extension: a light rewriting round between phases changes the
         cut structures available to the next phase; the classes are
         rebuilt by fresh partial simulation on the rewritten miter. *)
      if cfg.rewrite_between_phases && not (Aig.Miter.solved !g) then begin
        g := Opt.Resyn.light !g;
        let sigs =
          Sim.Psim.run ~stats:stats.Stats.psim !g ~nwords:cfg.sim_words ~rng
            ~pool ~embed:[]
        in
        classes := Sim.Eclass.of_sigs !g sigs ()
      end
    end
  done;
  (!g, !classes)

(* --- overall flow --------------------------------------------------------- *)

let run ?(config = Config.default) ?stop_after ?trace ?cancel ~pool miter =
  if trace <> None && config.Config.rewrite_between_phases then
    invalid_arg "Engine.run: trace is incompatible with rewrite_between_phases";
  let stats = Stats.create () in
  (* The P phase rewrites PO drivers in place; never mutate the caller's
     network. *)
  let miter = Aig.Network.copy miter in
  let initial_size = Aig.Network.num_ands miter in
  let rng = Sim.Rng.create ~seed:config.seed in
  (* One simulation-table slab for the whole run: every exhaustive batch
     of every phase recycles it instead of re-allocating the budget. *)
  let arena = Arena.create ~words:config.Config.memory_words in
  let finish ?classes outcome g =
    {
      outcome;
      reduced = g;
      classes;
      stats;
      initial_size;
      reduced_size = (if outcome = Proved then 0 else Aig.Network.num_ands g);
    }
  in
  let proved g = finish Proved (Aig.Reduce.sweep g).Aig.Reduce.network in
  (* Every phase ends the same way: a solved miter is proved, the
     [stop_after] phase ends the flow undecided, and otherwise [next]
     runs the rest of it. *)
  let after phase ?classes g next =
    if Aig.Miter.solved g then proved g
    else if stop_after = Some phase then finish ?classes Undecided g
    else next ()
  in
  if Aig.Miter.solved miter then proved miter
  else
    match
      Stats.timed stats Stats.Po_check (fun () ->
          po_phase config ~pool ~arena ~stats ?cancel ~trace miter)
    with
    | Error (cex, po) -> finish (Disproved (cex, po)) miter
    | Ok g ->
        after `P g @@ fun () ->
        let g, classes =
          Stats.timed stats Stats.Global_check (fun () ->
              global_phase config ~pool ~arena ~stats ?cancel ~rng ~trace g)
        in
        after `G ~classes g @@ fun () ->
        let g, classes =
          Stats.timed stats Stats.Local_check (fun () ->
              local_phases config ~pool ~stats ?cancel ~rng ~trace g classes)
        in
        after `L ~classes g @@ fun () -> finish ~classes Undecided g

type sat_leg = {
  sat_outcome : Sat.Sweep.outcome;
  sat_stats : Sat.Sweep.stats;
  sat_s : float;
}

type combined = { engine : run_result; sat : sat_leg option; final : outcome }

let check_with_fallback ?config ?(transfer_classes = false) ?cancel ~pool
    miter =
  let engine = run ?config ?cancel ~pool miter in
  match engine.outcome with
  | Undecided when not (Par.Cancel.is_set_opt cancel) ->
      (* The SAT sweeper finishes the reduced miter.  A cancelled engine
         run never starts it. *)
      let classes = if transfer_classes then engine.classes else None in
      let t0 = Unix.gettimeofday () in
      let sat_outcome, sat_stats =
        Sat.Sweep.check ?classes ?cancel ~pool engine.reduced
      in
      let sat_s = Unix.gettimeofday () -. t0 in
      {
        engine;
        sat = Some { sat_outcome; sat_stats; sat_s };
        final = of_sat_outcome sat_outcome;
      }
  | outcome -> { engine; sat = None; final = outcome }
