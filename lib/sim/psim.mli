(** Partial (random-pattern) bit-parallel simulator.

    Every node receives a signature of [nwords * 64] pattern bits; AND nodes
    are evaluated level by level, nodes within a level in parallel over the
    pool.  Pattern [p] is the assignment formed by bit [p] of every PI
    signature, so specific assignments (counter-examples) can be embedded at
    chosen pattern slots before simulation. *)

type sigs

(** Words per signature. *)
val nwords : sigs -> int

(** Simulation-effort counters, accumulated across runs when a [stats]
    record is passed to {!run}. *)
type stats = {
  mutable runs : int;
  mutable level_batches : int;  (** topological levels evaluated *)
  mutable node_words : int;  (** AND-node signature words computed *)
  mutable patterns_embedded : int;  (** counter-example patterns embedded *)
}

val new_stats : unit -> stats

(** [run g ~nwords ~rng ~pool ~embed] simulates [64*nwords] patterns:
    random PI values from [rng], with the assignments of [embed] (each a
    [bool array] over PIs, in order) written into the lowest pattern slots.
    At most [64*nwords] embedded patterns are used. *)
val run :
  ?stats:stats ->
  Aig.Network.t ->
  nwords:int ->
  rng:Rng.t ->
  pool:Par.Pool.t ->
  embed:bool array list ->
  sigs

(** [word s n w] is word [w] of node [n]'s signature. *)
val word : sigs -> int -> int -> int64

(** Key for grouping nodes into candidate equivalence classes: the
    signature normalised so that pattern 0 is [false], serialised.  Nodes
    with equal keys are equal or complementary on all simulated patterns. *)
val class_key : sigs -> int -> string

(** Phase of the node w.r.t. its normalised key: [true] when the raw
    signature had pattern 0 set (i.e. the key stores the complement). *)
val phase : sigs -> int -> bool

(** [value s n p] is the simulated value of node [n] under pattern [p]. *)
val value : sigs -> int -> int -> bool
