(** SAT sweeping combinational equivalence checker — the baseline engine
    standing in for ABC [&cec].

    The classic flow: random simulation seeds equivalence classes;
    candidate pairs are proved by incremental SAT under assumptions with a
    per-call conflict budget; counter-examples refine the classes; proved
    pairs are merged and the miter reduced; rounds repeat until a fixed
    point, and finally the remaining POs are checked by SAT.  Every
    solver is preprocessed ({!Solver.simplify}: BVE, subsumption,
    equivalent literals, XOR/Gauss, probing) with the variables it will
    be asked about frozen; counter-examples stay valid because eliminated
    PI values are reconstructed into the model.

    SAT is sequential: each round proves its pairs in pair-index order on
    one incremental solver and commits each verdict as it goes, so learnt
    clauses carry from pair to pair.  Only partial simulation runs on the
    pool; verdicts, merge counts, reduced networks and stats are
    bit-identical for any pool size. *)

type config = {
  conflict_limit : int;  (** budget per pair-proving SAT call (ABC's [-C]) *)
  sim_words : int;  (** 64-bit words per partial-simulation signature *)
  seed : int64;
  max_rounds : int;
  cex_batch : int;  (** resimulate after this many fresh counter-examples *)
  use_reverse_sim : bool;
      (** try backward justification ({!Sim.Rsim.justify_pair}) to disprove
          a candidate pair before spending SAT effort on it (§V, after
          Zhang et al.) *)
}

val default_config : config

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
  mutable rsim_splits : int;  (** pairs disproved by reverse simulation *)
  mutable candidates : int;  (** candidate pairs attempted *)
  mutable conflicts : int;  (** CDCL conflicts, summed over all solvers *)
  mutable cnf_loads : int;  (** solver CNF loads (one per round with pairs) *)
  mutable restarts : int;  (** CDCL restarts, summed over all solvers *)
  mutable reduce_dbs : int;  (** learnt-database reductions *)
  mutable learnts_removed : int;  (** learnt clauses dropped by reductions *)
  simp : Simplify.stats;  (** preprocessing counters, summed over solvers *)
}

(** [check ?config ?classes ?cancel ~pool miter] decides whether
    every PO of [miter] is constant false.  [classes] optionally seeds the
    equivalence classes (EC transfer from the simulation engine, paper
    §V); node ids in [classes] must refer to [miter].  [cancel] is polled
    at round boundaries, between pairs and inside the SAT search; a
    cancelled check returns [Undecided]. *)
val check :
  ?config:config ->
  ?classes:Sim.Eclass.t ->
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  outcome * stats

(** Direct SAT check of every PO without sweeping (used by tests and as a
    portfolio member on small miters).  [simplify] (default true)
    preprocesses the solver before the PO loop, with the PO variables
    frozen; [~simplify:false] gives the plain solver — the fuzz oracle
    cross-checks the two on every case. *)
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
  ?config:config ->
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  Aig.Network.t * stats
