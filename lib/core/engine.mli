(** The simulation-based CEC engine (paper §III-D, Fig. 5).

    Flow: a PO-checking phase (P) proves simulatable miter outputs by
    exhaustive simulation of their global functions; after partial random
    simulation initialises the equivalence classes, the global checking
    phase (G) proves candidate pairs with bounded supports, collecting
    counter-examples to refine the classes; then local-function checking
    phases (L) — three cut-generation passes each — run repeatedly until
    the miter stops shrinking.  An undecided miter is returned reduced, so
    that a SAT-based checker can finish it (the GPU+ABC combination of
    Table II is {!check_with_fallback}). *)

type outcome =
  | Proved  (** every miter output is constant false *)
  | Disproved of Sim.Cex.t * int  (** CEX and the PO it sets *)
  | Undecided  (** engine finished without proving the miter *)

type run_result = {
  outcome : outcome;
  reduced : Aig.Network.t;  (** the miter after all reductions *)
  classes : Sim.Eclass.t option;
      (** final equivalence classes on [reduced] for EC transfer (§V) *)
  stats : Stats.t;
  initial_size : int;  (** AND nodes before *)
  reduced_size : int;  (** AND nodes after *)
}

(** Reduction ratio in percent (the "Reduced (%)" column of Table II). *)
val reduction_percent : run_result -> float

(** One reduction step of the flow, reported to the [trace] callback: the
    POs proved constant-false (P phase) or the node merges applied (G/L
    phases), with node ids referring to the miter {e as it was before this
    step's reduction}.  Replaying the same reductions in order reproduces
    the engine's intermediate miters exactly — the basis of
    {!Certificate}. *)
type trace_step = {
  trace_phase : [ `P | `G | `L of int ];
  trace_pos : int list;  (** PO indices proved constant false *)
  trace_merges : (int * Aig.Lit.t) list;  (** node, replacement literal *)
}

(** [run ?config ?stop_after ?trace ?cancel ~pool miter] executes
    the engine.  [stop_after] truncates the flow after the named phase
    type — used to reproduce Fig. 7 (miters extracted after P, P+G,
    P+G+L).  [trace] receives every reduction step; it is incompatible
    with [rewrite_between_phases] (the rewriting steps are not replayable)
    and raises [Invalid_argument] in that combination.  [cancel] is
    polled at every phase boundary, G-phase sub-batch and simulation
    round; a cancelled run returns [Undecided] with [stats.cancelled]
    set. *)
val run :
  ?config:Config.t ->
  ?stop_after:[ `P | `G | `L ] ->
  ?trace:(trace_step -> unit) ->
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  run_result

type combined = {
  engine : run_result;
  sat_outcome : Sat.Sweep.outcome option;  (** [None] when not needed *)
  sat_stats : Sat.Sweep.stats option;
  final : outcome;
}

(** The paper's integrated flow: the simulation engine first, then the SAT
    sweeper on the reduced miter when the engine leaves it undecided.
    [transfer_classes] forwards the engine's equivalence classes to the
    sweeper (§V extension).  A cancelled engine run skips the SAT fallback
    and returns [Undecided]. *)
val check_with_fallback :
  ?config:Config.t ->
  ?sat_config:Sat.Sweep.config ->
  ?transfer_classes:bool ->
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  combined
