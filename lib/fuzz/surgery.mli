(** Whole-network surgical edits for fault injection and shrinking.
    The shrinker's other cut, keeping a subset of the POs, is
    {!Aig.Cone.restrict}.

    All operations rebuild the network through {!Aig.Network.add_and}, so
    structural hashing and constant propagation re-normalise the result:
    an edit that makes logic dangling or constant also deletes it, which
    is exactly what the shrinker wants. *)

(** What to do with one AND node during a rebuild.  Literals refer to the
    {e old} graph and must name nodes strictly below the edited node (the
    rebuild proceeds in topological order). *)
type edit =
  | Keep  (** rebuild the node unchanged *)
  | Replace_with of Aig.Lit.t  (** forward the node's output to a literal *)
  | Set_fanins of Aig.Lit.t * Aig.Lit.t  (** rebuild with different fanins *)

(** [rewrite g ~edit_of] rebuilds [g] applying [edit_of] to every AND node.
    PIs and PO order are preserved; the PO {e count} never changes. *)
val rewrite : Aig.Network.t -> edit_of:(int -> edit) -> Aig.Network.t

(** [substitute g ~node ~by] forwards a single node to [by] (a constant, a
    fanin, or any older literal). *)
val substitute : Aig.Network.t -> node:int -> by:Aig.Lit.t -> Aig.Network.t
