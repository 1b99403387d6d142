(** CDCL SAT solver (MiniSat-style).

    Two-watched-literal propagation, EVSIDS variable activity on an
    indexed binary heap, phase saving, Luby restarts, first-UIP clause
    learning, LBD-scored learnt-clause database reduction.  Supports
    incremental solving under assumptions and per-call conflict limits —
    the two features SAT sweeping relies on (the paper's baseline runs
    ABC [&cec] with a conflict budget per call).  The solver has no
    preprocessor of its own: {!Simplify} runs in front of it, loads the
    simplified CNF into a fresh solver and extends its models to the
    eliminated variables itself.  From here it only needs two level-0 primitives,
    {!rebuild_order} and failed-literal {!probe}. *)

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

(** Value of a variable in the last model (valid only after [Sat]). *)
val model_value : t -> int -> bool

(** [rebuild_order t] drops the variables assigned at level 0 from the
    branching order and re-enters the others in index order (MiniSat's
    [rebuildOrderHeap]).  A loader that fixes variables at level 0 calls
    it once, before the first [solve]. *)
val rebuild_order : t -> unit

(** [probe ?cancel t candidates] is failed-literal probing at level 0:
    each candidate that is still unassigned (at most 2000 of them) is
    assumed at a fresh decision level and propagated, and a conflict
    asserts its negation at level 0.  Polls [cancel] every 16
    candidates. *)
val probe : ?cancel:Par.Cancel.t -> t -> lit list -> unit

(** Total conflicts since creation (statistics). *)
val num_conflicts : t -> int

(** Total propagations since creation (statistics). *)
val num_propagations : t -> int

val num_restarts : t -> int
val num_reduce_dbs : t -> int

(** Learnt clauses dropped by database reductions. *)
val num_learnts_removed : t -> int
