(** Multi-process sharded sweeping.

    The coordinator plans shards ({!Plan}), spawns worker processes
    (re-execs of this program, [Sys.executable_name], which therefore
    must call {!Worker.maybe_become_worker} first thing; see
    {!Worker.hosts_workers}), and schedules shards with
    work-stealing: workers pull the next task whenever idle, so a slow
    shard never serialises the rest.  Each worker checks its shard with
    the [combined] flow ({!Worker.check}) and sends back the
    {!Simsweep.Engine.outcome} over {!Protocol}; the coordinator keeps one
    outcome per settled shard.  Counter-examples are validated against
    the shard and lifted to the full input space before being reported,
    and a single disproof stops the whole run (remaining workers are
    killed and reaped).

    {b Sizing.}  A group that a split would copy many times over stays
    whole ({!Plan}), so a plan may hold fewer shards than [workers]: only
    [min workers shards] workers are spawned, and they share the whole
    [workers * worker_domains] domain budget.

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
  workers : int;  (** worker slots: at most this many processes *)
  worker_domains : int;  (** simulation domains per worker slot *)
  max_shard_ands : int;  (** target AND nodes per shard *)
  max_respawns : int;  (** replacement workers after crashes *)
  deadline_s : float option;  (** wall-clock budget for the whole check *)
  test_kill_worker : int option;
      (** fault injection: SIGKILL this worker slot right after its first
          task assignment *)
}

val default_config : config

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
