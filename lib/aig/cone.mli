(** Logic cones and simulation windows (paper §III-B1).

    A window for roots [n, m] and input set [I] contains the intersection of
    the TFIs of the roots with the TFOs of the inputs, plus the roots — i.e.
    every AND node on a path from an input to a root.  Extraction walks the
    TFI of the roots and stops at input nodes; when a PI (or the constant
    node) outside [I] is reached, [I] is not a valid common cut and the
    extraction reports failure. *)

type window = {
  inputs : int array;  (** input node ids, sorted increasingly *)
  nodes : int array;  (** AND nodes of the window in increasing-id (topological) order, roots included *)
}

(** [extract g ~roots ~inputs] builds the window, or [None] when some path
    from the roots escapes the input boundary. *)
val extract : Network.t -> roots:int array -> inputs:int array -> window option

(** TFI node set of the given roots (all nodes, including PIs), as a
    membership array of size [num_nodes]. *)
val tfi : Network.t -> roots:int array -> bool array

(** [restrict g pos] is the sub-network of the listed POs (in the given
    order, repeats kept): their TFI rebuilt in node order through
    {!Network.add_and}, and only the PIs in that cone, with the original
    PI index of each sub-PI.  Raises [Invalid_argument] when a PO index
    is out of range. *)
val restrict : Network.t -> int list -> Network.t * int array
