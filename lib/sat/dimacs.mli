(** DIMACS CNF interchange.

    Lets the CDCL solver act as a standalone SAT tool, and — more usefully
    for a CEC flow — exports a miter as a standard CNF file so an external
    solver can confirm a verdict: [of_miter] produces a formula that is
    unsatisfiable exactly when every miter output is constant false. *)

(** [parse text] returns (variable count, clauses as nonzero DIMACS
    literals). *)
val parse : string -> (int * int list list, string) result

(** Render a CNF in DIMACS format. *)
val to_string : nvars:int -> int list list -> string

(** [cnf text] is [parse text] with each literal in the solver encoding
    (DIMACS variable [v] is solver variable [v-1]). *)
val cnf : string -> (int * Solver.lit list list, string) result

(** [load solver text] parses and adds the formula, allocating variables;
    returns [Ok false] when the formula is trivially unsatisfiable at the
    root level. *)
val load : Solver.t -> string -> (bool, string) result

(** [of_miter g] is the Tseitin CNF of [g] plus the disjunction of its
    outputs: UNSAT iff the miter is proved.  Variable [i+1] corresponds to
    node [i] (DIMACS variables are 1-based). *)
val of_miter : Aig.Network.t -> string
