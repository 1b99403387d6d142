(** Work-stealing fork–join domain pool.

    This is the stand-in for the paper's GPU runtime: data-parallel loops
    with a barrier at the end, used for all three dimensions of parallelism
    of the exhaustive simulator (words of a truth table, nodes of a
    topological level, windows of a batch).

    A loop's index range is statically partitioned into one contiguous
    block per worker; each worker claims fixed chunks off its own block's
    atomic cursor and steals chunks from the other blocks once its own is
    drained, so load imbalance inside a level costs a steal instead of an
    idle worker.  Jobs are published through an atomic generation counter
    and idle workers spin before parking, which makes a dispatch + barrier
    a pair of fetch-adds on the fast path — see {!parallel_region}. *)

type t

(** Utilization counters, accumulated since pool creation (or the last
    {!reset_stats}).  [chunks_per_worker.(0)] counts chunks claimed by the
    calling domain, slots [1..] the spawned workers — their spread shows
    how evenly the self-scheduling balanced the load.  [steals.(w)] counts
    the subset of worker [w]'s chunks that were claimed from another
    worker's block after its own drained. *)
type stats = {
  mutable jobs : int;  (** parallel loops dispatched to the workers *)
  mutable seq_jobs : int;  (** loops run inline (tiny range or nested) *)
  mutable items : int;  (** loop indices executed, over all loops *)
  mutable barrier_wait : float;
      (** seconds the calling domain spent waiting at end-of-loop barriers *)
  chunks_per_worker : int array;
  steals : int array;  (** stolen chunks per worker slot *)
  mutable regions : int;  (** {!parallel_region} entries (outermost only) *)
  mutable region_jobs : int;
      (** parallel loops dispatched from inside a region *)
}

(** [create ~num_domains ()] spawns [num_domains - 1] worker domains; the
    calling domain participates in every loop, so [num_domains = 1] gives a
    purely sequential pool.  Defaults to [recommended_domain_count],
    overridable with the [SIMSWEEP_DOMAINS] environment variable. *)
val create : ?num_domains:int -> unit -> t

(** Total workers, including the calling domain. *)
val num_workers : t -> int

(** Snapshot of the pool's utilization counters. *)
val stats : t -> stats

val reset_stats : t -> unit

(** [parallel_for t ~chunk ~start ~stop body] runs [body i] for
    [start <= i < stop] across the pool and returns once every index is
    done.  Exceptions raised by [body] are re-raised (first one wins) after
    the barrier.  Nested calls from inside [body] run sequentially.

    Concurrent submitters (several domains or threads sharing one pool,
    such as concurrent shell sessions) are safe: the pool has a single job slot
    and serializes loops through an internal submit lock, so concurrent
    loops queue FIFO-ish instead of corrupting each other.  Per-job stats
    stay exact; only [seq_jobs]/[items] of sequential fallbacks are
    best-effort under concurrent submission.

    The published job is dropped at barrier exit — a regression guard:
    retaining the last job used to keep its closure (and any simulation
    buffers it captured) alive until the next loop dispatched. *)
val parallel_for : t -> ?chunk:int -> start:int -> stop:int -> (int -> unit) -> unit

(** [parallel_region t f] runs [f ()] with the workers held in their
    spinning state for the whole call: successive {!parallel_for} jobs
    inside [f] are picked up via the atomic generation counter without any
    park/wake transition, so a tight sequence of small loops (the per-level
    barriers of one simulation round) pays spin-loop latency instead of a
    condvar round-trip per loop.  Purely a scheduling hint — results are
    identical with or without the region.  Nested regions, regions on a
    sequential pool and regions opened from inside a worker body are
    inert: [f] is simply called. *)
val parallel_region : t -> (unit -> 'a) -> 'a

(** Terminate the worker domains.  Idempotent; the pool must not be used
    for further loops afterwards. *)
val shutdown : t -> unit

(** Lazily-created process-wide pool; its workers are shut down
    automatically at process exit.  Safe to call from concurrent domains:
    creation is mutex-guarded, so exactly one pool is ever created (and its
    [at_exit] teardown registered exactly once), no matter how many domains
    race through the first call. *)
val default : unit -> t
