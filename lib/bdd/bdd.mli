(** Reduced ordered binary decision diagrams (Bryant).

    A classical BDD package with a unique table and a computed-table cache.
    It serves as one engine of the portfolio checker (the paper attributes
    the commercial tool's behaviour to a combination of engines; BDDs shine
    on symmetric control logic such as the [voter] case and blow up on
    multipliers, which reproduces the crossovers of Table II).

    Managers enforce a node budget: exceeding it raises {!Node_limit},
    letting the portfolio abort this engine and fall back to another.
    They also enforce a {e step} budget and accept a cancellation token —
    a pathological variable order can keep re-traversing memoised
    structure without allocating fresh nodes, which the node limit alone
    never catches; both conditions raise {!Timeout}. *)

exception Node_limit

(** Step budget exhausted, or the manager's cancellation token fired. *)
exception Timeout

type man

(** A BDD handle, valid within its manager. *)
type node

(** [create ~num_vars ~node_limit ?step_limit ?cancel ()] makes a manager
    with the identity variable order over [num_vars] variables.  Every
    internal node construction (unique-table hits included) counts one
    step against [step_limit]; [cancel] is polled every 256 steps. *)
val create :
  ?node_limit:int -> ?step_limit:int -> ?cancel:Par.Cancel.t -> num_vars:int ->
  unit -> man

(** The function of input variable [i]. *)
val var : man -> int -> node

val bdd_not : man -> node -> node
val bdd_and : man -> node -> node -> node
val bdd_or : man -> node -> node -> node
val bdd_xor : man -> node -> node -> node
val ite : man -> node -> node -> node -> node

val is_false : man -> node -> bool
val is_true : man -> node -> bool
val equal : node -> node -> bool

(** Live node count (unique-table size). *)
val size : man -> int

(** Steps consumed so far (node constructions, cache hits included). *)
val steps : man -> int

(** [any_sat m n] is a satisfying assignment over all manager variables
    (unconstrained variables default to [false]), or [None] for the
    constant-false BDD. *)
val any_sat : man -> node -> bool array option

(** Number of satisfying assignments over the manager's variables, as a
    float (may be huge). *)
val count_sat : man -> node -> float

(** Evaluate under a full assignment. *)
val eval : man -> node -> bool array -> bool

(** [of_output m g po] builds the BDD of output [po] of an AIG, mapping PI
    index [i] to manager variable [i].  It walks only the output's cone.
    Raises {!Node_limit} when the manager budget is exceeded. *)
val of_output : man -> Aig.Network.t -> int -> node

(** Equivalence check of a miter: [check g ~node_limit] is [`Equivalent],
    [`Inequivalent (cex, po)], [`Node_limit] when the node budget blows
    up, or [`Timeout] when the step budget is exhausted or [cancel]
    fires.  [step_limit] defaults to [64 * node_limit], so even the
    default configuration cannot stall indefinitely on a pathological
    variable order.

    Unsolved outputs are built in PO order in one manager, with the walk
    of {!of_output} over one node -> BDD map kept for the whole miter:
    each AND becomes a BDD once, however many outputs share it, and the
    walks together visit each node of the miter once.  The
    answer is the one a fresh manager per output would give: BDDs are
    canonical under the fixed variable order, so [po] is the first
    failing output and [cex] is {!any_sat} of its BDD. *)
val check :
  ?node_limit:int ->
  ?step_limit:int ->
  ?cancel:Par.Cancel.t ->
  Aig.Network.t ->
  [ `Equivalent | `Inequivalent of Sim.Cex.t * int | `Node_limit | `Timeout ]
