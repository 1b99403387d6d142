(** Multi-process sharded sweeping.

    The coordinator plans shards ({!Plan}), spawns [workers] processes
    (re-exec of the host binary, {!Worker}), and schedules shards with
    work-stealing: workers pull the next task whenever idle, so a slow
    shard never serialises the rest.  Verdicts stream back over
    {!Protocol} shard frames.  Each worker checks its shard with
    the sweeping engine and the sequential SAT sweeper to completion
    ({!Worker}).  Counter-examples are validated against the shard and
    lifted to the full input space before being reported, and a single
    disproof stops the whole run (remaining workers are killed and
    reaped).

    A crashed worker is reaped, its task re-queued, and a replacement
    spawned (up to [max_respawns]) — shards are never lost.  [deadline_s]
    bounds the whole check: it is forwarded to workers with every task
    and enforced coordinator-side; on expiry (or an external [cancel])
    every worker is killed and reaped and the check returns [Undecided].

    {b Data plane.}  Each shard's binary AIGER travels once per
    dispatch as the frame's trailer.  A worker that cannot parse a
    payload answers [Shard_failed], and that shard settles undecided
    (via ["failed"]) rather than being re-sent.  Workers are spawned for
    every check ({!Proc}) and killed and reaped when it ends. *)

type config = {
  workers : int;  (** worker processes to spawn *)
  worker_domains : int;  (** simulation domains per worker *)
  max_shard_ands : int;  (** target AND nodes per shard *)
  max_respawns : int;  (** replacement workers after crashes *)
  deadline_s : float option;  (** wall-clock budget for the whole check *)
  worker_exe : string option;
      (** worker executable; defaults to [SIMSWEEP_SHARD_WORKER] or
          [Sys.executable_name] *)
  test_kill_worker : int option;
      (** fault injection: SIGKILL this worker slot right after its first
          task assignment *)
}

val default_config : config

(** Whether [config] names an executable that serves as a worker:
    [worker_exe], [SIMSWEEP_SHARD_WORKER], or this program itself once
    it has called {!Worker.maybe_become_worker}.  Otherwise {!check}
    would re-exec a program that runs its [main] instead of the worker
    loop. *)
val can_spawn : config -> bool

(** [check ?config ?cancel g] checks the miter [g] end to end.
    Verdict classes (proved / disproved / undecided) are deterministic
    for any worker count; [Undecided] is only
    returned on cancellation, deadline expiry, exhausted respawns, a
    payload a worker could not parse, or a worker counter-example that
    does not replay. *)
val check :
  ?config:config ->
  ?cancel:Par.Cancel.t ->
  Aig.Network.t ->
  Simsweep.Engine.outcome * Stats.t
