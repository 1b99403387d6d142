type engine =
  | Bdd_engine
  | Sim_engine
  | Sat_engine

type mode = [ `Sequential | `Race ]

type result = {
  outcome : Engine.outcome;
  winner : engine option;
  time : float;
  mode_used : mode;
  per_engine_time : (engine * float) list;
  bdd_timeout : bool;
  cancel_latency : float option;
  engine_stats : Stats.t option;
  sat_stats : Sat.Sweep.stats option;
  racers : string list;
}

let engine_name = function
  | Bdd_engine -> "bdd"
  | Sim_engine -> "sim"
  | Sat_engine -> "sat"

let mode_name = function `Sequential -> "sequential" | `Race -> "race"

(* The race spawns one dedicated domain per racer beyond the first: the
   BDD engine and the SAT sweeper, next to the pool-parallel simulation
   engine. *)
let race_domains = 2

let recommended_pool_domains () =
  max 1 (Domain.recommended_domain_count () - race_domains)

(* --- generic racing combinator ------------------------------------------- *)

type 'a racer = {
  racer_name : string;
  racer_run : cancel:Cancel.t -> 'a;
  racer_conclusive : 'a -> bool;
}

type 'a race_outcome = {
  race_winner : (int * 'a) option;
  race_results : (float * 'a) option array;
  race_cancel_latency : float option;
  race_time : float;
}

let race ?cancel:outer racers =
  let racers = Array.of_list racers in
  let n = Array.length racers in
  if n = 0 then invalid_arg "Portfolio.race: no racers";
  (* The racers share a token private to this race (the winner fires it);
     an outer per-request token propagates into it on poll, but a race
     verdict never sets the caller's token. *)
  let cancel =
    match outer with Some c -> Cancel.child c | None -> Cancel.create ()
  in
  let t0 = Unix.gettimeofday () in
  (* First conclusive finisher wins the CAS, records the verdict time and
     fires the shared token; inconclusive finishers never cancel anyone. *)
  let winner = Atomic.make (-1) in
  let t_win = Atomic.make t0 in
  let run_racer i =
    match racers.(i).racer_run ~cancel with
    | v ->
        let t = Unix.gettimeofday () -. t0 in
        if racers.(i).racer_conclusive v
           && Atomic.compare_and_set winner (-1) i
        then begin
          Atomic.set t_win (Unix.gettimeofday ());
          Cancel.set cancel
        end;
        Some (t, v)
    | exception Cancel.Cancelled -> None
    | exception e ->
        (* A crashed racer must not leave the others running forever. *)
        Cancel.set cancel;
        raise e
  in
  (* Racer 0 runs on the calling domain (it may use a worker pool rooted
     there); the rest get a dedicated domain each. *)
  let domains =
    Array.init (n - 1) (fun k -> Domain.spawn (fun () -> run_racer (k + 1)))
  in
  let results = Array.make n None in
  results.(0) <- run_racer 0;
  Array.iteri (fun k d -> results.(k + 1) <- Domain.join d) domains;
  let t_end = Unix.gettimeofday () in
  let widx = Atomic.get winner in
  {
    race_winner =
      (if widx < 0 then None
       else
         match results.(widx) with
         | Some (_, v) -> Some (widx, v)
         | None -> None);
    race_results = results;
    race_cancel_latency =
      (* Winner verdict to all losers unwound and joined. *)
      (if widx < 0 then None else Some (t_end -. Atomic.get t_win));
    race_time = t_end -. t0;
  }

(* --- the three portfolio members ------------------------------------------ *)

let conclusive = function
  | Engine.Proved | Engine.Disproved _ -> true
  | Engine.Undecided -> false

(* What one portfolio member reports: its verdict plus whatever telemetry
   it produced along the way. *)
type payload = {
  p_outcome : Engine.outcome;
  p_engine : engine;
  p_stats : Stats.t option;
  p_sat : Sat.Sweep.stats option;
  p_bdd_timeout : bool;
}

let bdd_payload r =
  let p_outcome =
    match r with
    | `Equivalent -> Engine.Proved
    | `Inequivalent (cex, po) -> Engine.Disproved (cex, po)
    | `Node_limit | `Timeout -> Engine.Undecided
  in
  { p_outcome; p_engine = Bdd_engine; p_stats = None; p_sat = None;
    p_bdd_timeout = r = `Timeout }

let sat_payload (outcome, stats) =
  let o =
    match outcome with
    | Sat.Sweep.Equivalent -> Engine.Proved
    | Sat.Sweep.Inequivalent (cex, po) -> Engine.Disproved (cex, po)
    | Sat.Sweep.Undecided -> Engine.Undecided
  in
  { p_outcome = o; p_engine = Sat_engine; p_stats = None; p_sat = Some stats;
    p_bdd_timeout = false }

let sim_payload (r : Engine.run_result) =
  { p_outcome = r.Engine.outcome; p_engine = Sim_engine;
    p_stats = Some r.Engine.stats; p_sat = None; p_bdd_timeout = false }

(* --- sequential portfolio -------------------------------------------------- *)

let check_sequential ?cancel ~config ~sat_config ~bdd_node_limit
    ~bdd_step_limit ~pool miter =
  let t0 = Unix.gettimeofday () in
  let per = ref [] in
  let timed e f =
    let s = Unix.gettimeofday () in
    let r = f () in
    per := (e, Unix.gettimeofday () -. s) :: !per;
    r
  in
  let finish ?engine_stats ?sat_stats ?(bdd_timeout = false) outcome winner =
    let per = List.rev !per in
    {
      outcome;
      winner;
      time = Unix.gettimeofday () -. t0;
      mode_used = `Sequential;
      per_engine_time = per;
      bdd_timeout;
      cancel_latency = None;
      engine_stats;
      sat_stats;
      racers = List.map (fun (e, _) -> engine_name e) per;
    }
  in
  (* Engine 1: BDD with node and step budgets — cheap on control logic,
     aborts fast on arithmetic. *)
  match
    timed Bdd_engine (fun () ->
        Bdd.check ~node_limit:bdd_node_limit ?step_limit:bdd_step_limit ?cancel
          miter)
  with
  | `Equivalent -> finish Engine.Proved (Some Bdd_engine)
  | `Inequivalent (cex, po) ->
      finish (Engine.Disproved (cex, po)) (Some Bdd_engine)
  | (`Node_limit | `Timeout) as aborted -> (
      let bdd_timeout = aborted = `Timeout in
      (* Engine 2: the simulation engine. *)
      let er =
        timed Sim_engine (fun () -> Engine.run ~config ?cancel ~pool miter)
      in
      let engine_stats = er.Engine.stats in
      if conclusive er.Engine.outcome then
        finish ~engine_stats ~bdd_timeout er.Engine.outcome (Some Sim_engine)
      else begin
        (* Engine 3: SAT sweeping on the reduced miter. *)
        let sat_outcome, sat_stats =
          timed Sat_engine (fun () ->
              Sat.Sweep.check ~config:sat_config ?cancel ~pool
                er.Engine.reduced)
        in
        let p = sat_payload (sat_outcome, sat_stats) in
        (* The winner is the engine that produced the final verdict — an
           undecided portfolio has no winner. *)
        finish ~engine_stats ~sat_stats ~bdd_timeout p.p_outcome
          (if conclusive p.p_outcome then Some Sat_engine else None)
      end)

(* --- racing portfolio ------------------------------------------------------ *)

(* The race runs when the racer domains fit next to the pool's workers
   inside the machine's recommended domain count; otherwise it degrades to
   the sequential portfolio rather than oversubscribe cores. *)
let race_fits ~pool =
  Par.Pool.num_workers pool + race_domains
  <= Domain.recommended_domain_count ()

(* Run a racer's body on a private 1-domain pool: parallel loops execute
   inline on the racer's own domain, instead of contending for the main
   pool's job slot with the simulation engine. *)
let with_inline_pool f ~cancel =
  let inline_pool = Par.Pool.create ~num_domains:1 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown inline_pool)
    (fun () -> f ~cancel ~pool:inline_pool)

let check_race ?cancel ~config ~sat_config ~bdd_node_limit ~bdd_step_limit
    ~pool miter =
  let t0 = Unix.gettimeofday () in
  let payload_conclusive p = conclusive p.p_outcome in
  let members =
    [
      (* Racer 0 keeps the calling domain: it owns the worker pool. *)
      ( Sim_engine,
        fun ~cancel -> sim_payload (Engine.run ~config ~cancel ~pool miter) );
      ( Bdd_engine,
        fun ~cancel ->
          bdd_payload
            (Bdd.check ~node_limit:bdd_node_limit ?step_limit:bdd_step_limit
               ~cancel miter) );
      ( Sat_engine,
        with_inline_pool (fun ~cancel ~pool ->
            sat_payload (Sat.Sweep.check ~config:sat_config ~cancel ~pool miter))
      );
    ]
  in
  let racers =
    List.map
      (fun (e, run) ->
        {
          racer_name = engine_name e;
          racer_run = run;
          racer_conclusive = payload_conclusive;
        })
      members
  in
  let ro = race ?cancel racers in
  let find_payload e =
    Array.fold_left
      (fun acc r ->
        match r with
        | Some (_, p) when p.p_engine = e -> Some p
        | _ -> acc)
      None ro.race_results
  in
  let per_engine_time =
    members
    |> List.mapi (fun i (e, _) ->
           match ro.race_results.(i) with
           | Some (t, _) -> Some (e, t)
           | None -> None)
    |> List.filter_map Fun.id
  in
  let outcome, winner =
    match ro.race_winner with
    | Some (_, p) -> (p.p_outcome, Some p.p_engine)
    | None -> (Engine.Undecided, None)
  in
  {
    outcome;
    winner;
    time = Unix.gettimeofday () -. t0;
    mode_used = `Race;
    per_engine_time;
    bdd_timeout =
      (match find_payload Bdd_engine with
      | Some p -> p.p_bdd_timeout
      | None -> false);
    cancel_latency = ro.race_cancel_latency;
    engine_stats =
      (match find_payload Sim_engine with Some p -> p.p_stats | None -> None);
    sat_stats =
      (match find_payload Sat_engine with Some p -> p.p_sat | None -> None);
    racers = List.map (fun (e, _) -> engine_name e) members;
  }

let check ?(config = Config.default) ?(sat_config = Sat.Sweep.default_config)
    ?(bdd_node_limit = 1 lsl 20) ?bdd_step_limit ?(mode = `Sequential) ?cancel
    ~pool miter =
  match mode with
  | `Race when race_fits ~pool ->
      check_race ?cancel ~config ~sat_config ~bdd_node_limit ~bdd_step_limit
        ~pool miter
  | `Race | `Sequential ->
      check_sequential ?cancel ~config ~sat_config ~bdd_node_limit
        ~bdd_step_limit ~pool miter
