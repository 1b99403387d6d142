(** Output partitioning.

    Industrial checkers split a miter into independent sub-problems by
    grouping outputs whose support cones overlap, then solve each group
    separately — doubled benchmarks (the paper's enlargement method) and
    multi-unit designs decompose completely.  Groups are found with a
    union-find over PIs driven once through the AND nodes, so the
    partition costs a single topological pass. *)

(** [groups g] partitions the PO indices by overlapping structural
    support.  Constant outputs form their own group (returned first when
    present). *)
val groups : Aig.Network.t -> int list list

(** [sized_groups g] is [groups g] with each group's {!cone_ands},
    counted in one pass over [g] for all groups. *)
val sized_groups : Aig.Network.t -> (int list * int) list

(** [extract g pos] builds the sub-network containing only the listed POs,
    its cone, and the PIs in that cone; returns the network and, for each
    of its PIs, the original PI index. *)
val extract : Aig.Network.t -> int list -> Aig.Network.t * int array

(** [const_verdict g pos] decides a group whose POs are all constant:
    [Some Proved] when every PO is constant false, [Some (Disproved _)]
    (with the all-false assignment) when one is constant true, [None] when
    any PO is non-constant. *)
val const_verdict : Aig.Network.t -> int list -> Engine.outcome option

(** [cone_ands g pos] is the number of AND nodes in the combined cone of
    the listed POs — the size [extract] would produce. *)
val cone_ands : Aig.Network.t -> int list -> int

(** [split_group g ~max_ands ~ands pos] chunks one (large) support group,
    whose cone holds [ands] AND nodes ({!cone_ands}), into consecutive PO
    runs of roughly [max_ands] AND nodes each, for window-level sharding.
    Logic shared between chunks is replicated into each; a single PO whose
    cone alone exceeds the budget gets its own oversized chunk.  The group
    comes back whole when the chunks' cones would sum to more than 3/2 of
    [ands], or when [max_ands <= 0].  Deterministic. *)
val split_group :
  Aig.Network.t -> max_ands:int -> ands:int -> int list -> int list list
