(** Bump allocator for simulation tables.

    One [Bytes.t] backs all window rows of a simulation chunk: the memory
    budget (Algorithm 1's [M], {!Config.memory_words}) is allocated once
    and windows take word-offset slices.  {!reset} between chunks recycles
    the whole block without touching the GC — the seed engine's
    per-window [Bytes.create] churned the major heap on every chunk of
    every round batch.

    Offsets are in 64-bit words; byte addressing is the caller's
    [8 * (offset + i)] against {!data}. *)

type t

(** [create ~words] allocates a [words]-word arena (8 bytes each). *)
val create : words:int -> t

(** [ensure t words] grows the backing store to at least [words] words.
    Only legal while the arena is empty (just created or {!reset});
    raises [Invalid_argument] if any allocation is live, since slices
    would dangle into the discarded store. *)
val ensure : t -> int -> unit

(** Drop all allocations; capacity is retained. *)
val reset : t -> unit

(** [alloc t words] reserves [words] words and returns the slice's word
    offset.  Raises [Invalid_argument] when the arena is exhausted — the
    caller must {!ensure} a chunk's total before allocating its windows. *)
val alloc : t -> int -> int

(** The backing store.  Only valid until the next {!ensure}. *)
val data : t -> Bytes.t

(** Largest number of words ever allocated at once (across {!reset}s). *)
val hwm_words : t -> int

(** Times {!ensure} had to replace the backing store. *)
val grows : t -> int
