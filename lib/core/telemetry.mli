(** Structured telemetry.

    The paper's evaluation (Tables I–II, Figs. 6–7) is quantitative:
    per-phase time breakdown, windows simulated, truth-table words computed,
    reduction percentage, fallback SAT effort.  This module turns the
    engines' mutable stat records ({!Stats.t}, {!Exhaustive.stats},
    {!Sim.Psim.stats}, {!Par.Pool.stats}, {!Sat.Sweep.stats}) into a single
    machine-readable JSON snapshot, so every run — CLI, bench harness,
    tests — can be compared against previous ones.

    The JSON layer is hand-rolled (no external dependency) and symmetric:
    {!to_string} output is accepted by {!parse}. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(** Serialise; [indent] pretty-prints with two-space indentation.
    Non-finite floats serialise as [null]. *)
val to_string : ?indent:bool -> json -> string

(** Parse a JSON document.  Accepts everything {!to_string} emits (objects,
    arrays, strings with escapes, ints, floats, booleans, null). *)
val parse : string -> (json, string) result

(** Field lookup on an [Obj]; [None] on missing field or non-object. *)
val member : string -> json -> json option

(** {1 Typed field accessors}

    [member] plus a shape check, shared by the hand-rolled wire codecs
    (shard frames, bench readers).  The numeric accessors
    accept both numeric shapes — an integral float serialises as [Int]
    and must still read back. *)

val int_member : string -> json -> int option
val float_member : string -> json -> float option
val string_member : string -> json -> string option
val list_member : string -> json -> json list option

(** Pretty-printed snapshot written to [file], with a trailing newline. *)
val write_file : string -> json -> unit

(** {1 Stat snapshots} *)

val of_pool : Par.Pool.stats -> json
val of_sat : Sat.Sweep.stats -> json

(** Lower-case outcome tag: ["equivalent"], ["not_equivalent"],
    ["undecided"]. *)
val outcome_string : Engine.outcome -> string

(** Snapshot of a full engine run: outcome, sizes, reduction, stats. *)
val of_run : Engine.run_result -> json

(** Snapshot of the combined engine+SAT flow. *)
val of_combined : Engine.combined -> json

(** Snapshot of a portfolio run: outcome, winner, per-engine wall-clock,
    BDD step-budget hit, member stats. *)
val of_portfolio : Portfolio.result -> json
