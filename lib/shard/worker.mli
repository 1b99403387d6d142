(** Shard worker process.

    Workers are not a separate binary: the coordinator re-executes the
    host executable with {!mode_env} set ([Unix.fork] is unusable in a
    multi-domain OCaml 5 process), so every binary that can coordinate
    must call {!maybe_become_worker} first thing in [main].  The protocol
    rides on the worker's stdin/stdout; stdout is immediately dup'ed away
    and redirected to stderr so stray prints cannot corrupt frames.

    A worker handles one task at a time: [Shard_check] runs {!check} on
    the shard and answers with a verdict.

    AIGER payloads arrive as the frame's binary trailer; bytes that do
    not parse produce a framed [Shard_failed] reply, never a crash: the
    worker stays up for its next task. *)

(** The flow every shard runs, the [combined] engine's: the sweeping
    engine, then the SAT sweeper seeded with its equivalence classes. *)
val check :
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  Simsweep.Engine.combined

(** Environment variable that turns a host binary into a worker ("1"). *)
val mode_env : string

(** Environment variable carrying the worker's domain-pool size. *)
val domains_env : string

(** When {!mode_env} is set, run the worker protocol loop on
    stdin/stdout and [exit] — never returns in that case.  A no-op
    otherwise. *)
val maybe_become_worker : unit -> unit

(** Whether this process has called {!maybe_become_worker}, so that a
    re-exec of its executable comes up as a worker rather than running
    the program's [main] again. *)
val hosts_workers : unit -> bool

(** The protocol loop itself: read {!Protocol.shard_task} frames,
    answer each with one {!Protocol.shard_reply} frame, return at
    end-of-stream.
    [num_domains] sizes the worker's simulation pool (default 1). *)
val serve : ?num_domains:int -> in_channel -> out_channel -> unit
