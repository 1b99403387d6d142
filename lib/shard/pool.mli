(** Persistent fork-server worker pool.

    Keeps shard workers alive between {!Check.check} runs so repeated
    requests — in particular repeated [cec --server] shard requests
    against one daemon — hit warm workers (retained allocator and
    solver-cache state) instead of paying exec + cold-start per run.

    The pool holds only {e idle} workers.  {!acquire} leases workers
    out, revalidating every warm candidate with a {!Protocol}
    ping/pong exchange (dead, wedged or desynced workers are killed and
    replaced with cold spawns); {!release} returns a healthy idle worker
    — never one that is mid-task; leased workers that die are simply
    never returned.  Idle workers are retired after sitting unused past
    the idle budget.  Thread-safe. *)

type t

(** One spawned worker process, attached over a [socketpair].  The
    channels are owned by whoever holds the lease; do not close them
    before {!release} (the pool keeps them open) — {!kill} closes. *)
type worker = {
  pw_pid : int;
  pw_fd : Unix.file_descr;
  pw_ic : in_channel;
  pw_oc : out_channel;
  pw_exe : string;
  pw_domains : int;
  mutable pw_idle_since : float;
}

val pid : worker -> int
val fd : worker -> Unix.file_descr
val ic : worker -> in_channel
val oc : worker -> out_channel

(** Spawn a cold worker: re-exec [exe] with the worker-mode environment
    ({!Worker.mode_env}, {!Worker.domains_env}) over a socketpair.  The
    worker announces itself with [Shard_ready] once up. *)
val spawn : exe:string -> domains:int -> worker

(** SIGKILL + close + reap.  For leased workers that misbehave. *)
val kill : worker -> unit

val create : unit -> t

(** Lease [n] workers for [exe]/[domains].  Matching idle workers are
    ping-validated and returned first, tagged [true] (warm); the
    remainder are cold spawns tagged [false].  Also returns how many
    idle candidates failed validation and were discarded. *)
val acquire :
  t -> exe:string -> domains:int -> n:int -> (worker * bool) list * int

(** Return a healthy, idle worker to the pool (killed instead if the
    pool is shut down). *)
val release : t -> worker -> unit

(** Retire idle workers unused for more than [max_idle_s] (default
    300 s); returns how many were killed.  Also runs implicitly on
    {!acquire}/{!release}. *)
val reap_idle : ?max_idle_s:float -> t -> int

val idle_count : t -> int

(** Kill every idle worker and refuse future releases. *)
val shutdown : t -> unit

(** The process-wide pool (lazily created; emptied by an [at_exit]
    hook). *)
val default : unit -> t
