(** One shard worker process, attached over a [socketpair].

    {!Check.check} spawns its workers at the start of every run and kills
    and reaps them at the end; nothing outlives the run. *)

type t

val pid : t -> int
val fd : t -> Unix.file_descr
val ic : t -> in_channel
val oc : t -> out_channel

(** Spawn a worker: re-exec [exe] with the worker-mode environment
    ({!Worker.mode_env}, {!Worker.domains_env}) over a socketpair.  The
    worker announces itself with [Shard_ready] once up. *)
val spawn : exe:string -> domains:int -> t

(** SIGKILL + close + reap. *)
val kill : t -> unit
