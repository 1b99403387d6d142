(** Telemetry for one sharded check: planning shape, per-worker task and
    steal counts, cube-and-conquer effort, clause sharing, and the worker
    process lifecycle.  A worker's steal count is how many tasks it pulled
    beyond an even split of the total — the pull-model's measure of load
    imbalance absorbed. *)

type entry = {
  e_shard : int;
  e_pos : int;  (** POs in the shard *)
  e_ands : int;
  e_worker : int;  (** worker that delivered the verdict *)
  e_wall_s : float;  (** worker-side wall clock for the verdict *)
  e_via : string;  (** ["sweep"], ["cubes"] or ["failed"] *)
  e_verdict : string;
}

type t = {
  workers : int;
  mutable groups : int;
  mutable split_groups : int;
  mutable shards : int;
  mutable wall_s : float;
  tasks : int array;  (** tasks completed, per worker slot *)
  mutable cubes_solved : int;
  mutable cubes_sat : int;
  mutable cubes_unknown : int;
  mutable resplits : int;  (** unknown cubes split into deeper cubes *)
  mutable clauses_shared : int;  (** distinct clauses entering the pools *)
  mutable clause_imports : int;  (** clause copies shipped to workers *)
  mutable conflicts : int;  (** SAT conflicts across all workers *)
  mutable workers_spawned : int;
  mutable workers_crashed : int;
  mutable respawns : int;
  (* {2 Data plane} *)
  mutable bytes_tx : int;  (** frame bytes written, payload-inclusive *)
  mutable bytes_rx : int;
  mutable frames_tx : int;
  mutable frames_rx : int;
  mutable batched_flushes : int;
      (** clause+cube frame pairs coalesced into one flush *)
  mutable warm_starts : int;  (** workers leased warm from the pool *)
  mutable cold_starts : int;  (** workers spawned cold for this run *)
  mutable pool_discards : int;  (** idle workers that failed ping validation *)
  mutable entries : entry list;  (** most recent first *)
  mutable worker_pids : int list;
}

val create : workers:int -> t

(** Steals per worker slot: tasks beyond [ceil (total / workers)]. *)
val steals : t -> int array

val to_json : t -> Simsweep.Telemetry.json
