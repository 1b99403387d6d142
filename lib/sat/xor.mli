(** XOR constraint mining for arithmetic CNF.

    [extract] recovers complete k-ary XOR constraints from their 2^(k-1)
    CNF clauses (grouped by sorted variable set; uniform negation parity;
    all sign patterns present).  [eliminate] runs sparse GF(2) Gaussian
    elimination over the recovered rows and reports only derived {e facts}
    — units, binary equivalences, or unsatisfiability — leaving the
    originating clauses untouched, so partial extraction is always
    sound. *)

type xor_row = {
  vars : int list;  (** strictly increasing variable ids *)
  rhs : bool;  (** vars sum to [rhs] over GF(2) *)
}

type fact =
  | Unit of int * bool  (** variable forced to value *)
  | Equiv of int * int * bool  (** [Equiv (x, y, s)]: x = y xor s *)
  | Unsat  (** the XOR system is contradictory *)

(** Scan clauses (duplicate-free literal arrays in solver encoding) for
    complete XOR constraints of arity [3..max_arity] (default 6 — arity 2
    is the equivalent-literal pass's job). *)
val extract : ?max_arity:int -> int array list -> xor_row list

(** Gaussian elimination with smallest-variable pivots.  Rows growing past
    24 variables during merging are dropped, which only loses
    derivations.  If [Unsat] is present it is the only element. *)
val eliminate : xor_row list -> fact list
