(** CDCL SAT solver (MiniSat-style).

    Two-watched-literal propagation, EVSIDS variable activity on an
    indexed binary heap, phase saving, Luby restarts, first-UIP clause
    learning, LBD-scored learnt-clause database reduction.  Supports
    incremental solving under assumptions and per-call conflict limits —
    the two features SAT sweeping relies on (the paper's baseline runs
    ABC [&cec] with a conflict budget per call).  SAT sweeping uses the
    solver plain.  An optional {!simplify} preprocessing call (BVE,
    subsumption, equivalent literals, XOR/Gauss, failed-literal probing;
    see {!Simplify}) serves the monolithic per-output check
    ({!Sweep.check_direct}) and DIMACS solving, where it was measured to
    pay. *)

type t

(** Literals are [2*var] (positive) or [2*var+1] (negated). *)
type lit = int

val mklit : int -> bool -> lit

(** [neg l] is the complement literal. *)
val neg : lit -> lit

val var_of_lit : lit -> int

type result = Sat | Unsat | Unknown

val create : unit -> t

(** Allocate a fresh variable; returns its index. *)
val new_var : t -> int

val num_vars : t -> int

(** Add a clause (level-0 simplification applied).  Returns [false] when
    the clause makes the instance trivially unsatisfiable. *)
val add_clause : t -> lit list -> bool

(** [solve t ~assumptions ~conflict_limit ?cancel] runs CDCL search.
    [Unknown] is returned when the conflict budget is exhausted, or when
    [cancel] fires — the token is polled every few dozen conflicts and
    decisions, so a cancelled search unwinds within a bounded number of
    iterations.  The solver stays usable for further [solve] calls after
    either kind of [Unknown]. *)
val solve :
  ?assumptions:lit list -> ?conflict_limit:int -> ?cancel:Par.Cancel.t -> t -> result

(** Value of a variable in the last model (valid only after [Sat]).
    Covers {e every} variable: values of variables eliminated by
    {!simplify} are reconstructed from the stored elimination records, so
    the model always satisfies the original clauses. *)
val model_value : t -> int -> bool

(** Like {!model_value} but {e without} reconstruction of eliminated
    variables (their entries are whatever the search left behind).  Only
    for tests that need to observe the difference — e.g. the fuzzer's
    deliberately-broken reconstruction stub. *)
val model_value_raw : t -> int -> bool

(** [simplify ?config ?cancel ?frozen t] preprocesses the clause database
    at decision level 0: bounded variable elimination, subsumption +
    self-subsuming resolution, equivalent-literal substitution, XOR
    extraction with Gaussian elimination, then failed-literal probing.
    Variables listed in [frozen] are never eliminated nor substituted —
    callers MUST freeze every variable they will later pass in
    [assumptions] (eliminated variables no longer constrain the search,
    so assuming them would be meaningless).  Adding a clause over an
    eliminated variable afterwards is likewise invalid; check
    {!is_eliminated} when in doubt.  Learnt clauses are dropped.  Polls
    [cancel] throughout; a cancelled call leaves a partially simplified
    but equisatisfiable solver. *)
val simplify :
  ?config:Simplify.config -> ?cancel:Par.Cancel.t -> ?frozen:int list -> t -> unit

(** Was this variable eliminated by {!simplify}? *)
val is_eliminated : t -> int -> bool

(** Cumulative preprocessing statistics for this solver. *)
val simp_stats : t -> Simplify.stats

(** Total conflicts since creation (statistics). *)
val num_conflicts : t -> int

(** Total propagations since creation (statistics). *)
val num_propagations : t -> int

val num_restarts : t -> int
val num_reduce_dbs : t -> int

(** Learnt clauses dropped by database reductions. *)
val num_learnts_removed : t -> int
