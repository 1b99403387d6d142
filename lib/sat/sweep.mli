(** SAT sweeping combinational equivalence checker — the baseline engine
    standing in for ABC [&cec].

    The classic flow: random simulation seeds equivalence classes;
    candidate pairs are proved by incremental SAT under assumptions with a
    per-call conflict budget; counter-examples refine the classes; proved
    pairs are merged and the miter reduced; rounds repeat until a fixed
    point, and finally the remaining POs are checked by SAT.  The solvers
    are plain: no preprocessing, so every variable stays available to
    the assumptions.  The sweep has no options; its constants (1000
    conflicts per pair call, 4-word signatures, at most 30 rounds,
    resimulation after 48 fresh counter-examples) are ABC-like.  Only
    {!check_direct} preprocesses: {!Simplify.run} hands it a solver
    over the simplified CNF.  {!check}'s final PO check and
    {!check_direct} share one per-output loop: one SAT call per
    unsolved PO, stopping at the first counter-example or [Unknown].

    SAT is sequential: each round proves its pairs in pair-index order on
    one incremental solver and commits each verdict as it goes, so learnt
    clauses carry from pair to pair.  Only partial simulation runs on the
    pool; verdicts, merge counts, reduced networks and stats are
    bit-identical for any pool size. *)

type outcome =
  | Equivalent
  | Inequivalent of Sim.Cex.t * int  (** a CEX and the PO it distinguishes *)
  | Undecided

type stats = {
  mutable sat_calls : int;
  mutable sat_unsat : int;
  mutable sat_sat : int;
  mutable sat_unknown : int;
  mutable merged : int;
  mutable rounds : int;
  mutable cex_count : int;
  mutable candidates : int;  (** candidate pairs attempted *)
  mutable conflicts : int;  (** CDCL conflicts, summed over all solvers *)
  mutable propagations : int;
      (** literals taken off the trail by unit propagation, summed over all
          solvers *)
  mutable cnf_loads : int;  (** solver CNF loads (one per round with pairs) *)
  mutable restarts : int;  (** CDCL restarts, summed over all solvers *)
  mutable reduce_dbs : int;  (** learnt-database reductions *)
  mutable learnts_removed : int;  (** learnt clauses dropped by reductions *)
}

(** [check ?classes ?cancel ~pool miter] decides whether
    every PO of [miter] is constant false.  [classes] optionally seeds the
    equivalence classes (EC transfer from the simulation engine, paper
    §V); node ids in [classes] must refer to [miter].  [cancel] is polled
    at round boundaries, between pairs and inside the SAT search; a
    cancelled check returns [Undecided]. *)
val check :
  ?classes:Sim.Eclass.t ->
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  outcome * stats

(** Direct SAT check of every PO without sweeping (the [satdirect]
    engine, and a fuzz-oracle member).  [simplify] (default true) runs
    the miter's CNF through {!Simplify.run} before the PO loop, with the
    PO variables frozen, and reads counter-examples from the
    reconstructed model; [~simplify:false] loads a plain solver — the
    fuzz oracle cross-checks the two on every case. *)
val check_direct :
  ?simplify:bool ->
  ?conflict_limit:int ->
  ?cancel:Par.Cancel.t ->
  Aig.Network.t ->
  outcome

(** Functional reduction (FRAIGing, Mishchenko et al. — the paper's [7]):
    run the sweeping rounds on a {e single} network and return it with all
    proved-equivalent nodes merged — an optimisation pass rather than a
    check.  The result is functionally equivalent to the input and never
    larger. *)
val fraig :
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  Aig.Network.t * stats
