(** Deterministic random miter generator.

    Every case derives from [(run_seed, id)] alone: the same pair always
    yields the same base circuit (drawn from the {!Gen} families), the same
    {!Opt} pipeline for the right-hand side and — for mutants — the same
    injected fault.  That makes every fuzz failure a one-line repro.

    The expected verdict is known by construction: optimisation pipelines
    preserve function, and injected faults are verified against the
    brute-force oracle at generation time (a masked fault is re-drawn).
    All cases stay within 16 inputs ({!Brute.supported}) so the exhaustive oracle
    participates in every differential comparison. *)

type kind =
  | Equiv_pair  (** left vs optimisation pipeline of left *)
  | Identical  (** left vs a plain copy — the trivial strashed miter *)
  | Mutant of Mutate.fault  (** pipeline output with an injected fault *)

type t = {
  id : int;
  run_seed : int64;
  descr : string;  (** deterministic human-readable provenance *)
  kind : kind;
  expected : [ `Equivalent | `Inequivalent ];
  left : Aig.Network.t;
  right : Aig.Network.t;
  miter : Aig.Network.t;
}

val generate : run_seed:int64 -> id:int -> t

(** [inject rng ~left right] draws faults for [right] until one visibly
    changes the function against [left] (brute-verified), falling back to
    a PO negation; returns the fault and the mutant.  Exposed for the
    self-test, which needs a mutant of a specific size. *)
val inject :
  Sim.Rng.t -> left:Aig.Network.t -> Aig.Network.t -> Mutate.fault * Aig.Network.t
