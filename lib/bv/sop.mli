(** Sum-of-products (cube list) representation and a light algebraic
    factoring, used by the refactoring pass of the resyn2 stand-in.

    A cube over [n] variables is a pair of bit masks: [pos] lists the
    variables appearing as positive literals, [neg] those appearing
    complemented.  A variable in neither mask is absent from the cube. *)

type cube = { pos : int; neg : int }

type t = { nvars : int; cubes : cube list }

(** The cube containing no literal (constant true). *)
val full_cube : cube

(** Total number of literals in the SOP. *)
val literals : t -> int

(** [eval sop vals] evaluates the SOP on an assignment. *)
val eval : t -> bool array -> bool

(** Tabulate the SOP as a truth table. *)
val to_tt : t -> Tt.t

(** A factored Boolean formula tree produced by {!factor}. *)
type form =
  | Const of bool
  | Lit of int * bool  (** variable index, complemented flag *)
  | And of form * form
  | Or of form * form

(** [factor sop] extracts common literals recursively (weak division by the
    most frequent literal), yielding a formula with no more literals than
    the flat SOP and usually fewer. *)
val factor : t -> form

(** Evaluate a factored form on an assignment. *)
val eval_form : form -> bool array -> bool

(** Number of literal leaves in a form. *)
val form_literals : form -> int
