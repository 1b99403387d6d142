(** Equivalence-class (EC) manager (paper §III-A).

    Nodes with identical partial-simulation signatures (up to complement)
    form candidate classes; the representative is the node with the minimum
    id.  Each member carries a phase flag: [true] means the node matched
    the {e complement} of the representative's signature.  Counter-examples
    refine the classes by resimulation.  The constant node 0 participates,
    so nodes simulating to a constant form candidate constant pairs. *)

type t

type pair = {
  repr : int;  (** representative node id *)
  other : int;  (** candidate node id, [other > repr] *)
  compl_ : bool;  (** true: candidate matches the complement *)
}

(** Build classes from signatures.  Only the constant node and AND nodes
    participate ([~include_pis:true] adds PIs).  Singleton classes are
    dropped. *)
val of_sigs : Aig.Network.t -> Psim.sigs -> ?include_pis:bool -> unit -> t

(** Total number of nodes across classes (including representatives). *)
val num_nodes : t -> int

(** All classes; each class is sorted by node id, the head is the
    representative (phase [false]). *)
val classes : t -> (int * bool) array list

(** Candidate pairs, class by class: representative vs every other
    member. *)
val pairs : t -> pair list

(** [refine t sigs] splits every class according to fresh signatures
    (typically after counter-example resimulation). *)
val refine : t -> Psim.sigs -> t

(** [remove t dropped] removes the listed node ids from all classes (they
    were merged or disproved), re-electing representatives and dropping
    classes that become singletons. *)
val remove : t -> (int, unit) Hashtbl.t -> t

(** [map_nodes t f] renames every node through [f] — the new literal of the
    node after a miter reduction; [None] drops the node.  The literal's
    complement bit folds into the member's phase.  Nodes mapping to the
    same id are deduplicated.  Used to carry ECs across reductions and to
    transfer ECs to the SAT sweeper (paper §V extension). *)
val map_nodes : t -> (int -> Aig.Lit.t option) -> t
