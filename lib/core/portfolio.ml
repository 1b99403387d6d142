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

let check ?(bdd_node_limit = 1 lsl 20) ?bdd_step_limit
    ?mode:(_ : mode = `Sequential) ?cancel ~pool miter =
  let t0 = Unix.gettimeofday () in
  (* Member 1: BDD with node and step budgets — cheap on control logic,
     aborts fast on arithmetic. *)
  let bdd =
    Bdd.check ~node_limit:bdd_node_limit ?step_limit:bdd_step_limit ?cancel
      miter
  in
  let t_bdd = Unix.gettimeofday () in
  let finish ?(flow = []) ?engine_stats ?sat_stats ?(bdd_timeout = false)
      outcome winner =
    {
      outcome;
      winner;
      time = Unix.gettimeofday () -. t0;
      per_engine_time = (Bdd_engine, t_bdd -. t0) :: flow;
      bdd_timeout;
      engine_stats;
      sat_stats;
    }
  in
  match bdd with
  | `Equivalent -> finish Engine.Proved (Some Bdd_engine)
  | `Inequivalent (cex, po) ->
      finish (Engine.Disproved (cex, po)) (Some Bdd_engine)
  | (`Node_limit | `Timeout) as aborted ->
      (* Then the flow: the simulation engine, and SAT sweeping on the
         miter it leaves undecided.  The winner is the member that
         produced the final verdict; an undecided portfolio has none. *)
      let c =
        Engine.check_with_fallback ~config:Config.default ?cancel ~pool miter
      in
      let flow_s = Unix.gettimeofday () -. t_bdd in
      let last, flow =
        match c.Engine.sat with
        | None -> (Sim_engine, [ (Sim_engine, flow_s) ])
        | Some s ->
            ( Sat_engine,
              [
                (Sim_engine, flow_s -. s.Engine.sat_s);
                (Sat_engine, s.Engine.sat_s);
              ] )
      in
      finish ~flow ~engine_stats:c.Engine.engine.Engine.stats
        ?sat_stats:(Option.map (fun s -> s.Engine.sat_stats) c.Engine.sat)
        ~bdd_timeout:(aborted = `Timeout) c.Engine.final
        (if conclusive c.Engine.final then Some last else None)
