(** Portfolio checker — the stand-in for the commercial tool.

    The paper describes commercial checkers as "a combination of
    engines".  This portfolio is BDD, then {!Engine.check_with_fallback}:
    a BDD engine with node and step budgets, and when it aborts, the
    simulation engine with the SAT sweeper on the miter it leaves,
    stopping at the first conclusive verdict.  BDDs excel on symmetric
    control logic (the [voter] benchmark family) and blow up on
    multipliers, which reproduces Table II's Conformal-vs-ours
    crossovers. *)

type engine =
  | Bdd_engine
  | Sim_engine
  | Sat_engine

(** The one schedule: BDD, then simulation and SAT sweeping. *)
type mode = [ `Sequential ]

type result = {
  outcome : Engine.outcome;
  winner : engine option;
      (** the engine that produced the final verdict; [None] when the
          portfolio is undecided *)
  time : float;
  per_engine_time : (engine * float) list;
      (** wall-clock per engine the cascade reached, in run order; the
          flow's time splits into [Sim_engine] and, when its SAT leg ran,
          [Sat_engine] *)
  bdd_timeout : bool;
      (** the BDD engine hit its step budget (not its node budget) *)
  engine_stats : Stats.t option;
      (** simulation-engine telemetry, when that engine ran *)
  sat_stats : Sat.Sweep.stats option;
      (** SAT-sweeper telemetry, when the sweeper ran *)
}

(** [check ?bdd_node_limit ?bdd_step_limit ?mode ?cancel ~pool miter].
    The flow runs with {!Config.default} and no class transfer.  [bdd_step_limit]
    defaults to [64 * bdd_node_limit] (see {!Bdd.check}); [mode] names
    the only schedule.  [cancel] bounds every member engine; a cancelled
    portfolio reports [Undecided] with no winner. *)
val check :
  ?bdd_node_limit:int ->
  ?bdd_step_limit:int ->
  ?mode:mode ->
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  result

val engine_name : engine -> string
