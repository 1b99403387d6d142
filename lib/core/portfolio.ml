type engine =
  | Bdd_engine
  | Sim_engine
  | Sat_engine

type mode = [ `Sequential ]

type result = {
  outcome : Engine.outcome;
  winner : engine option;
  time : float;
  per_engine_time : (engine * float) list;
  bdd_timeout : bool;
  engine_stats : Stats.t option;
  sat_stats : Sat.Sweep.stats option;
}

let engine_name = function
  | Bdd_engine -> "bdd"
  | Sim_engine -> "sim"
  | Sat_engine -> "sat"

let conclusive = function
  | Engine.Proved | Engine.Disproved _ -> true
  | Engine.Undecided -> false

let check ?(config = Config.default) ?(bdd_node_limit = 1 lsl 20)
    ?bdd_step_limit ?mode:(_ : mode = `Sequential) ?cancel ~pool miter =
  let t0 = Unix.gettimeofday () in
  let per = ref [] in
  let timed e f =
    let s = Unix.gettimeofday () in
    let r = f () in
    per := (e, Unix.gettimeofday () -. s) :: !per;
    r
  in
  let finish ?engine_stats ?sat_stats ?(bdd_timeout = false) outcome winner =
    {
      outcome;
      winner;
      time = Unix.gettimeofday () -. t0;
      per_engine_time = List.rev !per;
      bdd_timeout;
      engine_stats;
      sat_stats;
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
      else
        (* Engine 3: SAT sweeping on the reduced miter.  The winner is the
           engine that produced the final verdict — an undecided portfolio
           has no winner. *)
        let sat_outcome, sat_stats =
          timed Sat_engine (fun () ->
              Sat.Sweep.check ?cancel ~pool er.Engine.reduced)
        in
        let outcome = Engine.of_sat_outcome sat_outcome in
        finish ~engine_stats ~sat_stats ~bdd_timeout outcome
          (if conclusive outcome then Some Sat_engine else None))
