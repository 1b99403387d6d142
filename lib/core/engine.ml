let src = Logs.Src.create "simsweep.engine" ~doc:"simulation-based CEC engine"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome = Proved | Disproved of Sim.Cex.t * int | Undecided

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
    let jobs =
      List.map
        (fun (i, s) ->
          let l = Aig.Network.po g i in
          {
            Exhaustive.inputs = s;
            pairs =
              [
                {
                  Exhaustive.a = Aig.Lit.node l;
                  b = -1;
                  compl_ = Aig.Lit.is_compl l;
                  tag = i;
                };
              ];
          })
        selected
    in
    let jobs = if cfg.window_merging then Wmerge.merge ~k_s jobs else jobs in
    let verdicts =
      Exhaustive.run g ~pool ~memory_words:cfg.memory_words ~arena
        ~stats:stats.Stats.exhaustive ?cancel ~jobs ~num_tags:num_pos ()
    in
    (* A mismatch on a PO is a real counter-example. *)
    let cex = ref None in
    List.iter
      (fun (i, _) ->
        match verdicts.(i) with
        | Exhaustive.Mismatch { pattern; inputs } when !cex = None ->
            cex := Some (Sim.Cex.of_window_pattern g ~inputs ~pattern, i)
        | _ -> ())
      selected;
    match !cex with
    | Some (c, i) -> Error (c, i)
    | None ->
        let proved = ref 0 in
        List.iter
          (fun (i, _) ->
            match verdicts.(i) with
            | Exhaustive.Proved ->
                incr proved;
                Aig.Network.set_po g i Aig.Lit.const_false
            | _ -> ())
          selected;
        stats.Stats.pos_proved <- stats.Stats.pos_proved + !proved;
        Log.debug (fun m -> m "P phase: proved %d POs" !proved);
        (match trace with
        | Some f when !proved > 0 ->
            let pos =
              List.filter_map
                (fun (i, _) ->
                  match verdicts.(i) with Exhaustive.Proved -> Some i | _ -> None)
                selected
            in
            f { trace_phase = `P; trace_pos = pos; trace_merges = [] }
        | _ -> ());
        if !proved = 0 then Ok g
        else Ok (Aig.Reduce.sweep g).Aig.Reduce.network
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
  let g = ref g in
  let sigs =
    Sim.Psim.run ~stats:stats.Stats.psim !g ~nwords:cfg.sim_words ~rng ~pool
      ~embed:[]
  in
  let classes = ref (Sim.Eclass.of_sigs !g sigs ()) in
  let repl = Array.make (Aig.Network.num_nodes !g) None in
  let merged = ref 0 in
  let continue_ = ref true in
  let iterations = ref 0 in
  while !continue_ && !iterations < 64 && not (stopping ?cancel ~stats ()) do
    incr iterations;
    stats.Stats.g_iterations <- stats.Stats.g_iterations + 1;
    let supports = Aig.Support.capped !g ~cap:cfg.k_g in
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
        let hi = min n (!base + max 1 batch_cap) in
        let jobs =
          List.init (hi - !base) (fun k ->
              let tag = !base + k in
              let repr, other, compl_, u = candidates.(tag) in
              {
                Exhaustive.inputs = u;
                pairs =
                  [
                    {
                      Exhaustive.a = other;
                      b = (if repr = 0 then -1 else repr);
                      compl_;
                      tag;
                    };
                  ];
              })
        in
        let jobs =
          if cfg.window_merging then Wmerge.merge ~k_s:cfg.k_g jobs else jobs
        in
        let batch =
          Exhaustive.run !g ~pool ~memory_words:cfg.memory_words ~arena
            ~stats:stats.Stats.exhaustive ?cancel ~jobs ~num_tags:n ()
        in
        for tag = !base to hi - 1 do
          verdicts.(tag) <- batch.(tag)
        done;
        base := hi;
        if !base < n && stopping ?cancel ~stats () then stopped := true
      done;
      let cexs = ref [] in
      Array.iteri
        (fun tag verdict ->
          let repr, other, compl_, u = candidates.(tag) in
          match verdict with
          | Exhaustive.Proved ->
              if repl.(other) = None then begin
                repl.(other) <-
                  Some
                    (if repr = 0 then Aig.Lit.xor_compl Aig.Lit.const_false compl_
                     else Aig.Lit.make repr compl_);
                incr merged
              end
          | Exhaustive.Mismatch { pattern; inputs } ->
              ignore u;
              let cex = Sim.Cex.of_window_pattern !g ~inputs ~pattern in
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
          Sim.Psim.run ~stats:stats.Stats.psim !g ~nwords:cfg.sim_words ~rng
            ~pool ~embed:!cexs
        in
        classes := Sim.Eclass.refine !classes sigs
      end
    end
  done;
  stats.Stats.pairs_proved_global <- stats.Stats.pairs_proved_global + !merged;
  Log.debug (fun m ->
      m "G phase: %d pairs merged in %d refinement iterations" !merged !iterations);
  if !merged = 0 then (!g, !classes)
  else begin
    (match trace with
    | Some f ->
        let merges = ref [] in
        Array.iteri
          (fun n t -> match t with Some l -> merges := (n, l) :: !merges | None -> ())
          repl;
        f { trace_phase = `G; trace_pos = []; trace_merges = List.rev !merges }
    | None -> ());
    let r = Aig.Reduce.apply !g ~repl in
    let classes' =
      Sim.Eclass.map_nodes !classes (fun n ->
          let l = r.Aig.Reduce.node_map.(n) in
          if l < 0 then None else Some l)
    in
    (r.Aig.Reduce.network, classes')
  end

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
      (match trace with
      | Some f ->
          let merges = ref [] in
          Array.iteri
            (fun n t -> match t with Some l -> merges := (n, l) :: !merges | None -> ())
            repl;
          f
            {
              trace_phase = `L !phase;
              trace_pos = [];
              trace_merges = List.rev !merges;
            }
      | None -> ());
      let r = Aig.Reduce.apply !g ~repl in
      g := r.Aig.Reduce.network;
      classes :=
        Sim.Eclass.map_nodes !classes (fun n ->
            let l = r.Aig.Reduce.node_map.(n) in
            if l < 0 then None else Some l);
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
  if Aig.Miter.solved miter then
    (* Every PO is already constant false. *)
    finish Proved (Aig.Reduce.sweep miter).Aig.Reduce.network
  else
  (* P phase. *)
  let p_result =
    Stats.timed stats Stats.Po_check (fun () ->
        po_phase config ~pool ~arena ~stats ?cancel ~trace miter)
  in
  match p_result with
  | Error (cex, po) -> finish (Disproved (cex, po)) miter
  | Ok g ->
      if Aig.Miter.solved g then finish Proved (Aig.Reduce.sweep g).Aig.Reduce.network
      else if stop_after = Some `P then finish Undecided g
      else begin
        (* G phase. *)
        let g, classes =
          Stats.timed stats Stats.Global_check (fun () ->
              global_phase config ~pool ~arena ~stats ?cancel ~rng ~trace g)
        in
        if Aig.Miter.solved g then
          finish Proved (Aig.Reduce.sweep g).Aig.Reduce.network
        else if stop_after = Some `G then finish ~classes Undecided g
        else begin
          (* L phases. *)
          let g, classes =
            Stats.timed stats Stats.Local_check (fun () ->
                local_phases config ~pool ~stats ?cancel ~rng ~trace g
                  classes)
          in
          if Aig.Miter.solved g then
            finish Proved (Aig.Reduce.sweep g).Aig.Reduce.network
          else finish ~classes Undecided g
        end
      end

type combined = {
  engine : run_result;
  sat_outcome : Sat.Sweep.outcome option;
  sat_stats : Sat.Sweep.stats option;
  final : outcome;
}

let check_with_fallback ?config ?(sat_config = Sat.Sweep.default_config)
    ?(transfer_classes = false) ?cancel ~pool miter =
  let engine = run ?config ?cancel ~pool miter in
  match engine.outcome with
  | Proved | Disproved _ ->
      { engine; sat_outcome = None; sat_stats = None; final = engine.outcome }
  | Undecided when Par.Cancel.is_set_opt cancel ->
      (* A cancelled engine run must not start the SAT fallback. *)
      { engine; sat_outcome = None; sat_stats = None; final = Undecided }
  | Undecided ->
      let classes = if transfer_classes then engine.classes else None in
      let sat_outcome, sat_stats =
        Sat.Sweep.check ~config:sat_config ?classes ?cancel ~pool
          engine.reduced
      in
      let final =
        match sat_outcome with
        | Sat.Sweep.Equivalent -> Proved
        | Sat.Sweep.Inequivalent (cex, po) -> Disproved (cex, po)
        | Sat.Sweep.Undecided -> Undecided
      in
      {
        engine;
        sat_outcome = Some sat_outcome;
        sat_stats = Some sat_stats;
        final;
      }
