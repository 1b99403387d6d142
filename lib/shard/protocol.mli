(** The wire protocol of the daemon and of shard workers.

    Frames are a 4-byte big-endian header length, that many bytes of
    JSON header (the hand-rolled {!Simsweep.Telemetry} flavour), then an
    optional raw binary trailer whose size the header announces as
    ["payload_len"].  Bulk bytes — AIGER images and counter-example bit
    strings — ride the trailer: one copy per side, zero JSON escaping.
    A connection is a strict request/response alternation: each request
    frame yields exactly one response frame, in order. *)

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
      (** run a shell script ([Shell.Command.exec_script]) in this
          connection's session *)
  | Cec of { aiger : string; engine : string; timeout_s : float option }
      (** check a miter shipped as an AIGER binary trailer with the
          [cec] engine of that name ([Shell.Engines.of_string]) *)
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
    ({!Shard.Check}), over the same framing.  A shard's AIGER travels as
    the binary trailer of its [Shard_check]; a disproof's counter-example
    travels as a ['0']/['1'] string in the trailer of its verdict. *)

type shard_task =
  | Shard_check of {
      shard : int;
      aiger : string;  (** binary AIGER of the shard's sub-miter *)
      deadline_in : float option;
    }  (** check one shard end to end *)
  | Shard_ping  (** pool health probe; answered with {!Shard_pong} *)
  | Shard_quit

type shard_verdict =
  | Sv_proved
  | Sv_disproved of { cex : string; po : int }
  | Sv_undecided

type shard_reply =
  | Shard_ready  (** sent once at (cold) worker startup *)
  | Shard_pong  (** answer to {!Shard_ping} *)
  | Shard_verdict of {
      shard : int;
      verdict : shard_verdict;
      wall_s : float;
      conflicts : int;
    }
  | Shard_failed of { shard : int; msg : string }
      (** framed error: the task's AIGER bytes did not parse.  The
          worker stays alive; the coordinator settles the shard
          undecided. *)

val cex_to_bits : bool array -> string
val bits_to_cex : string -> bool array
val shard_task_to_frame : shard_task -> json * string
val shard_task_of_frame : incoming -> (shard_task, string) result
val shard_reply_to_frame : shard_reply -> json * string
val shard_reply_of_frame : incoming -> (shard_reply, string) result

(** {1 Frame I/O}

    Blocking frame I/O on buffered channels.  [write_frame] injects
    ["payload_len"] into the header when [payload] is non-empty, writes
    header and trailer, and flushes.  Raises [Invalid_argument] when the
    frame exceeds {!max_frame} or a payload is attached to a non-object
    header.  [io], when given, accumulates payload-inclusive byte and
    frame counters.

    [read_frame] returns [Error "eof"] on clean end-of-stream and a
    descriptive error on a truncated, oversized or unparsable frame. *)

val write_frame : ?io:io -> ?payload:string -> out_channel -> json -> unit
val read_frame : ?io:io -> in_channel -> (incoming, string) result
