(** SatELite-style CNF preprocessing with model reconstruction.

    The pipeline runs (per round, to a fixpoint or the round limit):
    equivalent-literal substitution over the binary implication graph,
    subsumption + self-subsuming resolution, XOR extraction with GF(2)
    Gaussian elimination, and bounded variable elimination — all over a
    standalone occurrence-list clause database with level-0 unit
    propagation.

    {b Model reconstruction contract}: [run] returns a reconstruction
    stack; given any model of the simplified clauses (over the
    non-eliminated variables), {!extend_model} fills in the eliminated
    variables so the result satisfies every original clause.  This is
    what keeps `Sat.Sweep.check_direct` counter-examples replayable after
    simplification.

    {b Cancellation contract}: every pass polls [cancel] at its loop
    boundaries; a cancelled run returns early with a partially
    simplified — still equisatisfiable — database and sets
    [s_cancelled]. *)

type config = {
  bve : bool;  (** bounded variable elimination *)
  bve_grow : int;  (** resolvents may exceed removed clauses by this *)
  bve_max_occ : int;  (** skip variables with more total occurrences *)
  bve_resolvent_max : int;  (** abort elimination on longer resolvents *)
  subsume : bool;  (** subsumption + self-subsuming resolution *)
  elit : bool;  (** equivalent-literal substitution *)
  xor_ : bool;  (** XOR extraction + Gaussian elimination *)
  xor_max_arity : int;  (** largest XOR arity mined from clauses *)
  probe : bool;  (** failed-literal probing (performed by the solver) *)
  probe_limit : int;  (** max probes per simplify call *)
  rounds : int;  (** pipeline rounds; stops early at a fixpoint *)
}

val default_config : config

type stats = {
  mutable s_rounds : int;
  mutable s_units : int;
  mutable s_eliminated : int;
  mutable s_subsumed : int;
  mutable s_strengthened : int;
  mutable s_elit : int;
  mutable s_xor_rows : int;
  mutable s_xor_units : int;
  mutable s_xor_equivs : int;
  mutable s_probes : int;
  mutable s_failed_lits : int;
  mutable s_cancelled : bool;
}

val mk_stats : unit -> stats

(** One model-reconstruction record.  [R_subst] binds an eliminated
    variable to a literal's value; [R_clause] (eliminated literal first)
    forces its first literal true when all others are false. *)
type recon = R_clause of int array | R_subst of { v : int; lit : int }

type result = {
  clauses : int array list;  (** live simplified clauses, each ≥ 2 lits *)
  units : int list;  (** all level-0 assignments, as true literals *)
  recon : recon list;  (** reconstruction stack, most recent first *)
  unsat : bool;  (** formula refuted during preprocessing *)
  eliminated : bool array;  (** per var: removed by BVE or substitution *)
}

(** [run ~stats ~nvars ~frozen ~units clauses] simplifies the CNF
    [units @ clauses] over variables [0..nvars-1].  Literals use the
    solver encoding (lit = 2·var lor sign).  Variables with
    [frozen.(v)] true are never eliminated nor substituted (they may
    appear in later assumptions), though they can still be assigned by
    unit propagation.  Statistics accumulate into [stats]. *)
val run :
  ?config:config ->
  ?cancel:Par.Cancel.t ->
  stats:stats ->
  nvars:int ->
  frozen:bool array ->
  units:int list ->
  int array list ->
  result

(** [extend_model recon model] assigns every eliminated variable in
    [model] (indexed by variable, non-eliminated entries already set)
    so that the extended model satisfies the original formula. *)
val extend_model : recon list -> bool array -> unit
