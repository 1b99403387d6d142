(** Multi-process sharded sweeping with a cube-and-conquer SAT tail.

    The coordinator plans shards ({!Plan}), spawns [workers] processes
    (re-exec of the host binary, {!Worker}), and schedules shards with
    work-stealing: workers pull the next task whenever idle, so a slow
    shard never serialises the rest.  Verdicts stream back over
    {!Serve.Protocol} shard frames; counter-examples are lifted to the
    full input space before being reported, and a single disproof stops
    the whole run (remaining workers are killed and reaped).

    When a shard's SAT tail stalls, the worker ships back the
    engine-reduced miter and its hottest variables; the coordinator cuts
    the shard into cubes on those variables, fans the cubes across idle
    workers, re-splits any cube that comes back unknown, and relays short
    learnt clauses between the workers attacking the same shard.

    A crashed worker is reaped, its task re-queued, and a replacement
    spawned (up to [max_respawns]) — shards are never lost.  [deadline_s]
    bounds the whole check: it is forwarded to workers with every task
    and enforced coordinator-side; on expiry (or an external [cancel])
    every worker is killed and reaped and the check returns [Undecided].

    {b Data plane.}  Each shard's binary AIGER travels once per
    dispatch as the frame's trailer; a cube carries the reduced miter
    only to a worker that does not hold it yet.  A worker that cannot
    parse a payload answers [Shard_failed], and that shard settles
    undecided (via ["failed"]) rather than being re-sent.  With [?pool],
    workers are leased from a {!Pool} (warm when available) and healthy
    idle workers are returned at the end instead of being killed. *)

type config = {
  workers : int;  (** worker processes to spawn *)
  worker_domains : int;  (** simulation domains per worker *)
  max_shard_ands : int;  (** target AND nodes per shard *)
  stall_conflicts : int;  (** SAT budget before a shard counts as stalled *)
  split_vars : int;  (** cube-split candidates requested per stall *)
  cube_conflict_limit : int;  (** budget per cube solve *)
  max_pool_clauses : int;  (** shared-clause pool cap per shard *)
  max_respawns : int;  (** replacement workers after crashes *)
  direct_sat : bool;  (** skip the sweeping engine in workers (tests) *)
  deadline_s : float option;  (** wall-clock budget for the whole check *)
  worker_exe : string option;
      (** worker executable; defaults to [SIMSWEEP_SHARD_WORKER] or
          [Sys.executable_name] *)
  test_kill_worker : int option;
      (** fault injection: SIGKILL this worker slot right after its first
          task assignment *)
}

val default_config : config

(** [check ?config ?cancel ?pool g] checks the miter [g] end to end.
    Verdict classes (proved / disproved / undecided) are deterministic
    for any worker count and pool temperature; [Undecided] is only
    returned on cancellation, deadline expiry, exhausted respawns, a
    payload a worker could not parse, or a genuinely stalled cube
    tree. *)
val check :
  ?config:config ->
  ?cancel:Par.Cancel.t ->
  ?pool:Pool.t ->
  Aig.Network.t ->
  Simsweep.Engine.outcome * Stats.t
