(** Fuzz-run orchestration: generate cases, run the differential oracle,
    shrink and persist every failure.

    Everything is deterministic from [config.seed]: the case stream, every
    engine verdict, the shrink sequence and the log lines (which carry no
    timing).  Two runs with the same seed are byte-identical. *)

type config = {
  seed : int64;
  cases : int;
  out_dir : string;  (** repro AIGER files are written here *)
  bdd_node_limit : int;
  sat_conflict_limit : int;
  certify_every : int;  (** certificate-replay every Nth case; 0 disables *)
  shrink_budget : int;  (** oracle evaluations per shrink *)
  shard_transport : Shard.Check.transport;
      (** payload transport of the shard oracle engine: [`Shm] (the
          default data plane) or [`Inline] (bytes in the frame) — fuzzing
          under both proves verdict parity of the transports *)
}

val default_config : config

type summary = {
  cases_run : int;
  failed_cases : int;
  repros : Report.repro list;
}

(** [run ?log ?extra_engines ~pool config].  [extra_engines] join the
    differential comparison (the self-test's lying engine enters here).
    Every mode also includes a multi-process [shard] engine that races
    the coordinator against the in-process portfolio, so the host binary
    must call [Shard.Worker.maybe_become_worker] at startup. *)
val run :
  ?log:(string -> unit) ->
  ?extra_engines:Oracle.engine list ->
  pool:Par.Pool.t ->
  config ->
  summary

(** [run_soak ~minutes] streams the same deterministic case sequence as
    {!run} (ids 0, 1, 2, ...) until [minutes] of wall clock elapse, so a
    soak failure at case [id] replays exactly with [cases = id + 1].
    [progress] receives a heartbeat line roughly every 15 seconds (and a
    final total) — timing-dependent, hence separate from [log], which
    stays byte-deterministic.  [config.cases] is ignored. *)
val run_soak :
  ?log:(string -> unit) ->
  ?progress:(string -> unit) ->
  ?extra_engines:Oracle.engine list ->
  pool:Par.Pool.t ->
  minutes:float ->
  config ->
  summary

(** [run_dir ~dir] runs the oracle over every [.aig] / [.aag] file in
    [dir] (sorted by name) as an already-built miter.  No constructed
    expectation exists, so the checks are cross-engine agreement and
    counter-example replay; unreadable files are skipped with a logged
    warning and do not count as cases.  Failures shrink and persist to
    [config.out_dir] like generated cases. *)
val run_dir :
  ?log:(string -> unit) ->
  ?extra_engines:Oracle.engine list ->
  pool:Par.Pool.t ->
  dir:string ->
  config ->
  summary

(** End-to-end harness check: build a known-inequivalent mutant, add a
    deliberately lying engine, and require that the oracle flags the
    disagreement, the shrinker reduces the miter to at most 20% of its
    AND nodes, the written AIGER repro still reproduces the disagreement
    when read back, a portfolio race cancels a deliberately hanging
    engine once the fast racer concludes, a SAT stub with broken
    counter-example reconstruction is flagged by CEX replay, the shard
    coordinator survives a worker SIGKILLed mid-shard (crash
    registered, shard rescheduled, correct verdict), and a shard worker
    fed corrupted/truncated shared-memory descriptors answers each with
    a framed [Shard_failed] and still serves a valid dispatch on the
    same connection.  [Error] describes the first broken link. *)
val self_test :
  ?log:(string -> unit) ->
  pool:Par.Pool.t ->
  out_dir:string ->
  seed:int64 ->
  unit ->
  (Report.repro, string) result
