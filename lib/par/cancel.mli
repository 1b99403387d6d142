(** Cooperative cancellation token.

    A cancellation token is an atomic flag, optionally armed with a
    wall-clock deadline.  Engine loops poll the token at their natural
    batch boundaries (simulation rounds, SAT conflicts, BDD node
    allocations) and unwind with an inconclusive verdict when it fires —
    the mechanism behind per-engine time budgets and shard deadlines.

    Tokens are domain-safe: [set] and [poll] may be called from any
    domain. *)

type t

(** [create ?deadline_in ()] makes a fresh token.  [deadline_in] arms a
    deadline that many seconds from now; polling past the deadline sets
    the token as if {!set} had been called. *)
val create : ?deadline_in:float -> unit -> t

(** Request cancellation.  Idempotent. *)
val set : t -> unit

(** Flag state only — one atomic load, never consults the clock. *)
val is_set : t -> bool

(** Flag state or deadline expiry.  An expired deadline latches into the
    flag, so repeated polls after expiry cost one atomic load. *)
val poll : t -> bool

(** [poll_opt c] / [is_set_opt c] on an optional token; [None] is never
    cancelled and costs one branch. *)
val poll_opt : t option -> bool

val is_set_opt : t option -> bool
