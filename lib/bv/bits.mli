(** Packed bit-vectors backed by [Bytes] with 64-bit word access.

    A bit-vector of length [l] stores bits [0 .. l-1]; bit [i] of the vector
    corresponds to pattern index [i] when the vector is used as a truth table
    or as a column of simulation patterns.  All operations keep the unused
    tail bits of the last word zeroed, so structural equality of the
    underlying bytes coincides with logical equality. *)

type t

(** [create ~len fill] is a vector of [len] bits, all set to [fill]. *)
val create : len:int -> bool -> t

(** Number of bits. *)
val length : t -> int

(** Number of 64-bit words backing the vector. *)
val num_words : t -> int

(** Deep copy. *)
val copy : t -> t

(** [get v i] is bit [i].  Raises [Invalid_argument] when out of range. *)
val get : t -> int -> bool

(** [set v i b] sets bit [i] to [b] in place. *)
val set : t -> int -> bool -> unit

(** [get_word v w] is the [w]-th 64-bit word. *)
val get_word : t -> int -> int64

(** [set_word v w x] stores word [x] at index [w]; tail bits of the last
    word are masked off automatically. *)
val set_word : t -> int -> int64 -> unit

(** Bitwise negation, allocating. *)
val bnot : t -> t

(** Bitwise AND of two vectors of equal length, allocating. *)
val band : t -> t -> t

(** Bitwise OR, allocating. *)
val bor : t -> t -> t

(** Bitwise XOR, allocating. *)
val bxor : t -> t -> t

(** [and_maybe_not ~c0 a ~c1 b] is [(a xor c0) land (b xor c1)] where a
    [true] flag complements the operand — the fundamental AIG simulation
    step. *)
val and_maybe_not : c0:bool -> t -> c1:bool -> t -> t

(** Logical equality. *)
val equal : t -> t -> bool

(** [equal_mod_compl a b] is [`Equal] if [a = b], [`Compl] if [a = not b],
    [`Diff] otherwise — one pass over the words. *)
val equal_mod_compl : t -> t -> [ `Equal | `Compl | `Diff ]

(** Total order (by length, then lexicographic on words). *)
val compare : t -> t -> int

(** Hash of the contents, suitable for [Hashtbl]. *)
val hash : t -> int

(** True when every bit is 0. *)
val is_zero : t -> bool

(** True when every bit is 1. *)
val is_ones : t -> bool

(** Number of set bits. *)
val popcount : t -> int

(** [ctz64 x] is the number of trailing zero bits of [x], and 64 when
    [x = 0].  Branchless De Bruijn multiplication — the shared primitive
    behind {!first_diff}, {!first_one} and the simulators' mismatch
    pattern extraction. *)
val ctz64 : int64 -> int

(** Index of the first bit where the vectors differ, if any. *)
val first_diff : t -> t -> int option

(** Index of the first set bit, if any. *)
val first_one : t -> int option

(** [to_string v] prints in truth-table convention: most significant
    pattern first, i.e. bit [len-1] down to bit [0]. *)
val to_string : t -> string

(** Inverse of [to_string]. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit
