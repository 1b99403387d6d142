(** SatELite-style CNF preprocessing in front of a plain {!Solver}.

    [run] takes a CNF and its frozen variables and runs, per round (to a
    fixpoint, at most 3 rounds): equivalent-literal substitution over the
    binary implication graph, subsumption + self-subsuming resolution,
    XOR extraction with GF(2) Gaussian elimination, and bounded variable
    elimination — all over a standalone occurrence-list clause database
    with level-0 unit propagation.  It then loads the result into a fresh
    solver and runs failed-literal probing there ({!Solver.probe}).  The
    pipeline has no options.

    {b Model reconstruction contract}: the solver never branches on an
    eliminated variable (it is fixed false at level 0); given a model of
    the simplified clauses, {!extend_model} with the returned stack fills
    in the eliminated variables so the result satisfies every original
    clause.  This is what keeps `Sat.Sweep.check_direct` counter-examples
    replayable after simplification.

    {b Cancellation contract}: every pass polls [cancel] at its loop
    boundaries; a cancelled run stops early and still returns an
    equisatisfiable solver. *)

(** One model-reconstruction record.  [R_subst] binds an eliminated
    variable to a literal's value; [R_clause] (eliminated literal first)
    forces its first literal true when all others are false. *)
type recon = R_clause of int array | R_subst of { v : int; lit : int }

type t = {
  solver : Solver.t;  (** plain solver over the simplified CNF *)
  recon : recon list;  (** reconstruction stack, most recent first *)
  eliminated : bool array;  (** per var: removed by BVE or substitution *)
}

(** [run ?cancel ~nvars ~frozen clauses] simplifies the CNF [clauses] over
    variables [0..nvars-1] (literals in the solver encoding, lit =
    2·var lor sign).  Variables in [frozen] are never eliminated nor
    substituted, though unit propagation may still assign them: callers
    MUST freeze every variable they will later pass in [assumptions].
    Adding a clause over an eliminated variable to the solver afterwards
    is likewise invalid. *)
val run :
  ?cancel:Par.Cancel.t -> nvars:int -> frozen:int list -> Solver.lit list list -> t

(** [extend_model recon model] assigns every eliminated variable in
    [model] (indexed by variable, non-eliminated entries already set)
    so that the extended model satisfies the original formula. *)
val extend_model : recon list -> bool array -> unit

(** The solver's last model (valid only after [Sat]) over every
    variable, extended by the reconstruction stack. *)
val model : t -> bool array
