(** Priority-cut enumeration (paper §III-C1, Eq. 1 and 2).

    For each AIG node [n] with fanins [n0, n1], the candidate set is

    [E(n) = { u ∪ v : u ∈ P(n0) ∪ {{n0}}, v ∈ P(n1) ∪ {{n1}}, |u ∪ v| ≤ k_l }]

    from which the best [c] cuts are kept as the priority cuts [P(n)],
    ranked by the pass criteria — or, for a non-representative node, by
    similarity to its representative's priority cuts first (so that the
    pair's common cuts are plentiful), with the pass criteria as
    tie-breaker. *)

type config = {
  k_l : int;  (** maximum cut size *)
  c : int;  (** number of priority cuts kept per node *)
}

(** Enumeration levels (Eq. 2): like structural levels, but a
    non-representative additionally depends on its representative, so that
    [P(repr(n))] exists before [P(n)] is computed.  [repr_of n] must return
    [n] for representatives and PIs. *)
val enum_levels : Aig.Network.t -> repr_of:(int -> int) -> int array

(** [node_cuts g cfg ~pass ~fanouts ~levels ~prio ~sim_target n] computes
    [P(n)].  [prio] holds the already-computed priority cuts of the fanins;
    [sim_target] supplies the representative's cuts for similarity-steered
    selection (pass criteria break ties).  The candidates [E(n)] are
    merged into per-domain scratch space and scored there, each once; a
    cut array is allocated only for a candidate that is kept.  The result
    is the first [c] distinct candidates ordered by score, then by
    {!Cut.compare}: the first [c] of a stable sort by score of [E(n)]
    deduplicated in {!Cut.compare} order. *)
val node_cuts :
  Aig.Network.t ->
  config ->
  pass:Criteria.pass ->
  fanouts:int array ->
  levels:int array ->
  prio:Cut.t list array ->
  sim_target:Cut.t list option ->
  int ->
  Cut.t list

(** Common cuts of a candidate pair: pairwise merges of the two priority
    cut sets under the size bound, deduplicated, trivial cuts excluded, in
    {!Cut.compare} order. *)
val common_cuts : k_l:int -> Cut.t list -> Cut.t list -> Cut.t list
