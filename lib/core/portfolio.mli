(** Portfolio checker — the stand-in for the commercial tool.

    The paper describes commercial checkers as "a combination of engines",
    with multi-threading plausibly "running different engines
    simultaneously and early-stopping when an engine finishes".  This
    portfolio runs a BDD engine (with node and step budgets), the
    simulation engine, and the SAT sweeper — either one after the other
    ([`Sequential]) or concurrently with cooperative cancellation
    ([`Race]).  BDDs excel on symmetric control logic (the [voter]
    benchmark family) and blow up on multipliers, which reproduces
    Table II's Conformal-vs-ours crossovers.

    In [`Race] mode the simulation engine keeps the calling domain (and
    its worker pool) while the BDD engine and the SAT sweeper each get one
    dedicated domain; the first {e conclusive} verdict fires a shared
    {!Cancel.t} token that the losers poll cooperatively.  An inconclusive
    finisher (BDD budget blow-up, undecided engine) never cancels anyone.
    The race degrades to the sequential portfolio when the pool's workers
    plus {!race_domains} exceed [Domain.recommended_domain_count] — the
    portfolio never oversubscribes cores. *)

type engine =
  | Bdd_engine
  | Sim_engine
  | Sat_engine

type mode = [ `Sequential | `Race ]

type result = {
  outcome : Engine.outcome;
  winner : engine option;
      (** the engine that produced the final verdict; [None] when the
          portfolio is undecided *)
  time : float;
  mode_used : mode;
      (** the mode actually run — [`Sequential] when a requested race
          degraded for lack of cores *)
  per_engine_time : (engine * float) list;
      (** wall-clock per engine that ran to completion; a cancelled racer
          does not report a time *)
  bdd_timeout : bool;
      (** the BDD engine hit its step budget (not its node budget) *)
  cancel_latency : float option;
      (** race only: seconds from the winning verdict until every loser
          unwound and joined *)
  engine_stats : Stats.t option;
      (** simulation-engine telemetry, when that engine ran *)
  sat_stats : Sat.Sweep.stats option;
      (** SAT-sweeper telemetry, when the sweeper ran *)
  racers : string list;
      (** engines that participated: every race member in race mode, the
          engines the cascade reached in sequential mode *)
}

(** Dedicated domains a race spawns beyond the calling one: one each for
    the BDD engine and the SAT sweeper. *)
val race_domains : int

(** Pool size that leaves room for the racer domains:
    [max 1 (recommended_domain_count - race_domains)].  Size the worker
    pool with this when racing is intended. *)
val recommended_pool_domains : unit -> int

(** {2 Generic racing combinator}

    Exposed for tests and the fuzzer's self-test (which races a
    deliberately hanging engine against a fast one). *)

type 'a racer = {
  racer_name : string;
  racer_run : cancel:Cancel.t -> 'a;
      (** must poll [cancel] cooperatively; may raise {!Cancel.Cancelled} *)
  racer_conclusive : 'a -> bool;
}

type 'a race_outcome = {
  race_winner : (int * 'a) option;
      (** index and result of the first conclusive finisher *)
  race_results : (float * 'a) option array;
      (** per racer: wall-clock and result; [None] for a cancelled racer *)
  race_cancel_latency : float option;
      (** winning verdict to all racers joined *)
  race_time : float;
}

(** [race ?cancel racers] runs racer 0 on the calling domain and every
    other racer on a dedicated spawned domain, all sharing one fresh
    cancellation token.  The first racer whose result is
    [racer_conclusive] fires the token; the call returns once every racer
    finished or unwound.  A racer raising any other exception also fires
    the token, and the exception is re-raised.  [cancel] is an outer
    (e.g. per-request deadline) token: its firing propagates to every
    racer via a {!Cancel.child}, but a race verdict never sets it. *)
val race : ?cancel:Cancel.t -> 'a racer list -> 'a race_outcome

(** [check ?config ?sat_config ?bdd_node_limit ?bdd_step_limit ?mode
    ?cancel ~pool miter].  [bdd_step_limit] defaults to
    [64 * bdd_node_limit] (see {!Bdd.check}); [mode] defaults to
    [`Sequential].  [cancel] bounds every member engine (threaded directly
    in sequential mode, as the racers' parent token in race mode); a
    cancelled portfolio reports [Undecided] with no winner. *)
val check :
  ?config:Config.t ->
  ?sat_config:Sat.Sweep.config ->
  ?bdd_node_limit:int ->
  ?bdd_step_limit:int ->
  ?mode:mode ->
  ?cancel:Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  result

val engine_name : engine -> string
val mode_name : mode -> string
