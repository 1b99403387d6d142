(** The daemon's wire protocol.

    Frames are a 4-byte big-endian header length, that many bytes of
    JSON header (the hand-rolled {!Simsweep.Telemetry} flavour), then an
    optional raw binary trailer whose size the header announces as
    ["payload_len"].  Bulk bytes — AIGER images, counter-example bit
    strings, learnt-clause blocks — ride the trailer: one copy per side,
    zero JSON escaping.  A connection is a strict request/response
    alternation: each request frame yields exactly one response frame,
    in order (except the one-way frames documented below). *)

type json = Simsweep.Telemetry.json
type io = Simsweep.Telemetry.io

(** {1 Frame size cap}

    A frame (header + trailer) larger than the cap is rejected on both
    sides before any allocation.  Process-global and configurable
    (server config, [--max-frame-mb]); defaults to 256 MB.
    {!set_max_frame} clamps to a 64 KiB floor so the protocol's own
    control frames always fit. *)

val default_max_frame : int
val max_frame : unit -> int
val set_max_frame : int -> unit

(** A decoded frame: JSON header plus raw trailer ([""] when absent). *)
type incoming = { hdr : json; payload : string }

type request =
  | Ping  (** liveness probe; answered without queueing *)
  | Script of { script : string; timeout_s : float option }
      (** run a shell script ({!Shell.Command.exec_script}) in this
          connection's session *)
  | Cec of { aiger : string; engine : string; timeout_s : float option }
      (** check a miter shipped as an AIGER binary trailer with the
          named [cec] engine (sim, sat, bdd, portfolio, combined,
          partitioned, shard.N) *)
  | Cache_stats  (** snapshot of the shared equivalence cache *)

type response = {
  ok : bool;
  output : string;  (** printable output, or the error message *)
  cache_hits : int;  (** equivalence-cache hits during this request *)
  cache_misses : int;
  elapsed_s : float;
}

val error_response : ?elapsed_s:float -> string -> response

(** Codecs produce [(header, payload)] pairs for {!write_frame} and
    consume the {!incoming} a {!read_frame} returned.  Responses are
    header-only. *)

val request_to_frame : request -> json * string
val request_of_frame : incoming -> (request, string) result
val response_to_json : response -> json
val response_of_json : json -> (response, string) result

(** {1 Shard frames}

    Coordinator ↔ worker messages for multi-process sharded sweeping
    ({!Shard.Check}), over the same framing.  AIGER payloads travel as
    the binary trailer; counter-examples are
    ['0']/['1'] strings in the trailer; learnt clauses are little-endian
    int32 blocks in the trailer.  Literals and variables use the SAT
    solver's integer encoding, which is stable across processes because
    {!Sat.Cnf.load} maps network node [n] to variable [n] and both
    sides decode the same AIGER bytes. *)

type shard_task =
  | Shard_check of {
      run : int;  (** coordinator run id; isolates warm-pool reuse *)
      shard : int;
      aiger : string;  (** binary AIGER of the shard's sub-miter *)
      stall_conflicts : int;  (** SAT budget before declaring a stall *)
      split_vars : int;  (** how many split candidates to report *)
      direct_sat : bool;  (** skip the sweeping engine (tests) *)
      deadline_in : float option;
    }  (** check one shard end to end *)
  | Shard_cube of {
      run : int;
      shard : int;
      cube : int;
      aiger : string option;
          (** cube formula (the stalled shard's reduced miter); omitted
              when this worker already holds it *)
      assume : int list;  (** solver literals fixing this cube *)
      freeze : int list;  (** vars that must survive preprocessing *)
      conflict_limit : int;
      deadline_in : float option;
    }  (** solve one cube of a stalled shard *)
  | Shard_clauses of {
      run : int;
      shard : int;
      clauses : int list list;  (** learnt clauses shared by other workers *)
    }
      (** one-way: import clauses into the cached cube solver (or stash
          them until it exists).  No reply — written unflushed and
          coalesced with the next {!Shard_cube} into one syscall batch. *)
  | Shard_ping  (** pool health probe; answered with {!Shard_pong} *)
  | Shard_quit

type shard_verdict =
  | Sv_proved
  | Sv_disproved of { cex : string; po : int }
  | Sv_undecided

type cube_result =
  | Cube_unsat
  | Cube_sat of { cex : string; po : int }
  | Cube_unknown

type shard_reply =
  | Shard_ready  (** sent once at (cold) worker startup *)
  | Shard_pong  (** answer to {!Shard_ping} *)
  | Shard_verdict of {
      shard : int;
      verdict : shard_verdict;
      wall_s : float;
      conflicts : int;
    }
  | Shard_stalled of {
      shard : int;
      reduced : string;  (** engine-reduced miter: the cube formula *)
      vars : int list;  (** high-activity split candidates, hottest first *)
      wall_s : float;
    }
  | Shard_cube_reply of {
      shard : int;
      cube : int;
      result : cube_result;
      learnt : int list list;
          (** short learnt clauses for the pool; always [[]] on
              {!Cube_sat} (the frame's one trailer carries the CEX) *)
      conflicts : int;
      wall_s : float;
    }
  | Shard_failed of { shard : int; cube : int option; msg : string }
      (** framed error: the task's AIGER bytes did not parse.  The
          worker stays alive; the coordinator settles the shard
          undecided. *)

val cex_to_bits : bool array -> string
val bits_to_cex : string -> bool array

(** Learnt-clause trailer codec: little-endian int32 words —
    clause count, then per clause its length followed by its literals. *)
val clauses_to_payload : int list list -> string

val clauses_of_payload : string -> (int list list, string) result
val shard_task_to_frame : shard_task -> json * string
val shard_task_of_frame : incoming -> (shard_task, string) result
val shard_reply_to_frame : shard_reply -> json * string
val shard_reply_of_frame : incoming -> (shard_reply, string) result

(** {1 Frame I/O}

    Blocking frame I/O on buffered channels.  [write_frame] injects
    ["payload_len"] into the header when [payload] is non-empty, writes
    header and trailer, and flushes unless [~flush:false] — pass
    [~flush:false] to coalesce several frames into one syscall batch,
    then flush on the last frame (or {!flush_frames}).  Raises
    [Invalid_argument] when the frame exceeds {!max_frame} or a payload
    is attached to a non-object header.  [io], when given, accumulates
    payload-inclusive byte/frame/flush counters.

    [read_frame] returns [Error "eof"] on clean end-of-stream and a
    descriptive error on a truncated, oversized or unparsable frame. *)

val write_frame :
  ?flush:bool -> ?io:io -> ?payload:string -> out_channel -> json -> unit

val flush_frames : ?io:io -> out_channel -> unit
val read_frame : ?io:io -> in_channel -> (incoming, string) result
