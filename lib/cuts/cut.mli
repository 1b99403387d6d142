(** Cuts: sorted arrays of node ids such that every PI-to-root path passes
    through one of them. *)

type t = int array  (** strictly increasing node ids *)

(** Singleton (trivial) cut of a node. *)
val trivial : int -> t

(** [merge ~cap a b] is the sorted union, or [None] when it exceeds
    [cap].  An over-cap union allocates nothing. *)
val merge : cap:int -> t -> t -> t option

(** Leaf signature: bit [id mod 62] set for every leaf.  Its popcount never
    exceeds the cut size, so [sig_exceeds ~cap (signature a lor signature b)]
    proves that [merge ~cap a b] is [None]. *)
val signature : t -> int

(** [sig_exceeds ~cap s]: [s] has more than [cap] bits set. *)
val sig_exceeds : cap:int -> int -> bool

(** [Stdlib.compare]'s order on int arrays: shorter first, then
    lexicographic. *)
val compare : t -> t -> int

val size : t -> int

(** [subset a b]: every node of [a] is in [b]. *)
val subset : t -> t -> bool

(** Jaccard-sum similarity of a cut against a set of cuts (paper §III-C1):
    [s(c, P) = sum_{c' in P} |c ∩ c'| / |c ∪ c'|]. *)
val similarity : t -> t list -> float

(** [check g ~root cut] verifies the cut property by cone traversal — every
    path from a PI to [root] intersects [cut].  Test helper. *)
val check : Aig.Network.t -> root:int -> t -> bool
