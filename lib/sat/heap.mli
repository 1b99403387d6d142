(** Indexed binary max-heap over small non-negative integers.

    The branching-order heap of the CDCL solver: elements are variable
    ids, priorities live in the caller's activity array.  Every
    operation that compares takes that array ([act]) explicitly, so the
    caller may regrow it without notifying the heap — only the next
    operation needs the fresh array — and no comparison closure is built
    per call.  An element with a strictly higher activity sits higher.
    Sifting moves a hole rather than swapping pairs, and leaves every
    element exactly where the pairwise-swap heap would, ties included:
    the branching order of the solver depends on that layout.  [update]
    implements increase/decrease-key in O(log n) after an external
    priority change. *)

type t

val create : ?capacity:int -> unit -> t
val size : t -> int
val is_empty : t -> bool

(** [mem t e] — is [e] currently in the heap? *)
val mem : t -> int -> bool

(** [insert t act e] inserts [e]; no-op when already present.  Grows
    internal storage as needed. *)
val insert : t -> float array -> int -> unit

(** [pop t act] removes and returns the element of highest activity.  The
    heap must not be empty. *)
val pop : t -> float array -> int

(** [update t act e] restores the heap property around [e] after its
    activity changed in either direction (increase- or decrease-key).
    No-op when [e] is not in the heap. *)
val update : t -> float array -> int -> unit

(** Empty the heap (keeps storage). *)
val clear : t -> unit
