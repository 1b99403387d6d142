(** Delta-debugging shrinker for failing miters.

    Reduction moves: drop POs, re-extract the cone of the kept outputs
    ({!Aig.Cone.restrict}), and forward internal AND nodes to a fanin or a
    constant — each candidate accepted only when it is strictly smaller
    {e and} the failure predicate still holds, so the final network still
    reproduces the original disagreement. *)

(** [shrink ?budget ~fails g] returns the reduced network together with
    the number of predicate evaluations spent.  [budget] (default 400)
    bounds predicate calls — the predicate typically re-runs the whole
    differential oracle, which dominates the cost.  When [fails g] is
    already false the input is returned unchanged. *)
val shrink :
  ?budget:int ->
  fails:(Aig.Network.t -> bool) ->
  Aig.Network.t ->
  Aig.Network.t * int
