(** Shard planning: cut one miter into worker-sized sub-miters.

    Industrial checkers split a miter into independent sub-problems by
    grouping outputs whose support cones overlap: doubled benchmarks (the
    paper's enlargement method) and multi-unit designs decompose
    completely.  Support groups come from a union-find over the AND
    fanin edges, and one TFI pass sizes every group's cone ({!groups}).
    A group larger than the shard budget is split at PO boundaries when
    the chunks' cones sum to at most 3/2 of the group's cone, else kept
    whole as one oversized shard; smaller groups are packed so a doubled
    benchmark's thousands of tiny groups become a few dozen extraction
    passes, not one scan each.  Each shard is extracted with
    {!Aig.Cone.restrict}.  The plan depends only on the miter and
    [max_ands], never on worker count or scheduling. *)

type shard = {
  id : int;
  pos : int list;  (** PO indices in the full miter, ascending *)
  sub : Aig.Network.t;  (** extracted sub-miter *)
  pi_origin : int array;  (** sub PI index -> full-miter PI index *)
  ands : int;  (** AND nodes of [sub] *)
}

type t = {
  shards : shard list;  (** in id order; empty when [early] is set *)
  groups : int;  (** support groups in the miter *)
  split_groups : int;  (** groups larger than the budget, split by PO *)
  early : Simsweep.Engine.outcome option;
      (** verdict reached during planning: a constant-true PO disproves
          the miter without spawning anything *)
}

(** [build ~max_ands g] plans the shards.  An all-constant-false miter
    yields an empty shard list and no early verdict (i.e. proved). *)
val build : max_ands:int -> Aig.Network.t -> t

(** [lift ~num_pis shard cex po]: a disproof of [shard] at its PO [po] as
    the full miter's, [cex] lifted to the miter's [num_pis] inputs (those
    outside the shard read false). *)
val lift : num_pis:int -> shard -> Sim.Cex.t -> int -> Simsweep.Engine.outcome

(** [groups g] partitions [g]'s POs by overlapping structural support,
    each group with the number of AND nodes in its POs' combined cone.
    Constant POs form one group of size 0, first when present; the other
    groups are in ascending order of their PO lists. *)
val groups : Aig.Network.t -> (int list * int) list
