(** Tseitin encoding of an AIG into a SAT solver.

    Every network node [n] maps to solver variable [n]; the constant node
    is constrained to false with a unit clause, and each AND gate
    contributes the three standard clauses. *)

(** [iter_clauses g add] passes every clause of the encoding to [add],
    the constant's unit first, then each AND gate's three clauses in
    node order. *)
val iter_clauses : Aig.Network.t -> (Solver.lit list -> unit) -> unit

(** The clauses of {!iter_clauses} as a list, over
    [Aig.Network.num_nodes g] variables. *)
val clauses : Aig.Network.t -> Solver.lit list list

(** [load solver g] allocates variables and clauses for the whole network;
    returns [false] when the instance is trivially unsatisfiable. *)
val load : Solver.t -> Aig.Network.t -> bool

(** Solver literal of an AIG literal. *)
val lit : Aig.Lit.t -> Solver.lit

(** [cex g value] is the PI assignment read from a model, given as the
    value of each variable (e.g. [Solver.model_value solver]). *)
val cex : Aig.Network.t -> (int -> bool) -> Sim.Cex.t
