(** Local function checking (paper §III-C, Algorithm 2).

    One pass interleaves priority-cut enumeration with exhaustive
    simulation of local functions: nodes are processed by enumeration
    level (Eq. 2 — a non-representative waits for its representative's
    cuts), and in the level's parallel loop each candidate pair is checked
    on its common cuts as soon as they are made, by
    {!Exhaustive.prove_on_windows}.  Algorithm 2 batches these windows in
    a buffer because a GPU keeps no per-cut state; on a CPU each domain
    checks its own pairs in place.  A pair is proved when its local
    functions w.r.t. {e any} common cut are identical; a mismatch is
    inconclusive (it may be a satisfiability don't-care). *)

type result = {
  proved : (int * Aig.Lit.t) list;  (** node, replacement literal *)
  pairs_tried : int;
  cuts_checked : int;
}

(** [run_pass cfg ~pass ~pool ~stats ?cancel g classes] runs one cut
    generation and checking pass over all candidate pairs of [classes].
    [proved] lists the proved pairs in reverse enumeration order; every
    cut checked counts into [stats] as a small window.  [cancel] is polled
    between enumeration levels and read before every window; a cancelled
    pass returns the pairs proved so far. *)
val run_pass :
  Config.t ->
  pass:Cuts.Criteria.pass ->
  pool:Par.Pool.t ->
  stats:Exhaustive.stats ->
  ?cancel:Par.Cancel.t ->
  Aig.Network.t ->
  Sim.Eclass.t ->
  result
