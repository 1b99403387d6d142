(** The wire protocol between a shard coordinator and its workers.

    Frames are a 4-byte big-endian header length, that many bytes of
    JSON header (the hand-rolled {!Simsweep.Telemetry} flavour), then an
    optional raw binary trailer whose size the header announces as
    ["payload_len"].  Bulk bytes — AIGER images and counter-example bit
    strings — ride the trailer: one copy per side, zero JSON escaping.
    After the worker's opening [Shard_ready], each [Shard_check] frame
    yields exactly one reply frame, in order. *)

type json = Simsweep.Telemetry.json
type io = Simsweep.Telemetry.io

(** {1 Frame size cap}

    A frame (header + trailer) larger than the cap is rejected on both
    sides before any allocation.  Process-global; defaults to 256 MB,
    far above any planned shard.  {!set_max_frame} lowers it so the
    boundary can be tested, clamped to a 64 KiB floor so control frames
    always fit. *)

val max_frame : unit -> int
val set_max_frame : int -> unit

(** A decoded frame: JSON header plus raw trailer ([""] when absent). *)
type incoming = { hdr : json; payload : string }

(** {1 Shard frames}

    Coordinator ↔ worker messages for multi-process sharded sweeping
    ({!Shard.Check}).  A shard's AIGER travels as the binary trailer of
    its [Shard_check]; a disproof's counter-example travels as a
    ['0']/['1'] string in the trailer of its verdict. *)

type shard_task =
  | Shard_check of {
      shard : int;
      aiger : string;  (** binary AIGER of the shard's sub-miter *)
      deadline_in : float option;
    }  (** check one shard end to end *)
  | Shard_quit

type shard_verdict =
  | Sv_proved
  | Sv_disproved of { cex : string; po : int }
  | Sv_undecided

type shard_reply =
  | Shard_ready  (** sent once at worker startup *)
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
