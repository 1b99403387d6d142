(** The checking engines, defined once for every front-end.

    [simsweep-cec], the shell's [cec] command and the fuzz oracle all
    select an engine by one of the names below and run it through {!run},
    so a name means the same check — the same configuration, the same
    verdict — wherever it is used.

    {v
    sim             the simulation engine alone (Config.scaled)
    combined        sim, then the SAT sweeper on what it left, seeded with
                    the engine's equivalence classes (Table II flow)
    sat             the SAT sweeper
    satdirect       one monolithic SAT check per output, no sweeping
    bdd             the BDD engine
    portfolio       sim, BDD and SAT in sequence (Config.default)
    portfolio.race  the same three engines raced on separate domains
    partitioned     sim then SAT, per support-disjoint output group
    shard[.N]       N worker processes (default 2), spawned for this
                    check, each sweeping its shards
    v} *)

type t =
  | Sim
  | Combined
  | Sat
  | Sat_direct
  | Bdd
  | Portfolio of Simsweep.Portfolio.mode
  | Partitioned
  | Shard of int  (** worker processes, [>= 1] *)

(** Every engine once, shard at its default worker count. *)
val all : t list

val to_string : t -> string

(** Parses the names above; [Error] names the unknown engine or the bad
    worker count.  [of_string (to_string e) = Ok e]. *)
val of_string : string -> (t, string) result

(** ["EQUIVALENT"], ["NOT EQUIVALENT (output P, inputs BITS)"] or
    ["UNDECIDED"]. *)
val outcome_string : Simsweep.Engine.outcome -> string

type report = {
  outcome : Simsweep.Engine.outcome;
  summary : string;  (** one line: the verdict plus engine detail *)
  stats : (string * Simsweep.Telemetry.json) list;
      (** the engine's [--stats-json] fields: [run] (sim), [combined],
          [sat], [portfolio], [partition_groups] or [shard]; none for
          satdirect and bdd *)
}

(** [run ?cancel ~pool engine miter] checks [miter].  [pool] runs the
    in-process engines; [shard.N] gives each of its N workers an equal
    share of its domains (at least one).  [Error] only for [shard] in a
    program that cannot host shard workers ({!Shard.Check.can_spawn}); no
    process is spawned then. *)
val run :
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  t ->
  Aig.Network.t ->
  (report, string) result
