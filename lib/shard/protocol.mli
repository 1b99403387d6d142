(** The wire protocol between a shard coordinator and its workers.

    Callers exchange messages; framing and encoding stay inside this
    module.  A frame is a 4-byte big-endian header length, that many
    bytes of JSON header (the hand-rolled {!Simsweep.Telemetry}
    flavour), then an optional raw binary trailer whose size the header
    announces as ["payload_len"].  Bulk bytes ride the trailer, one copy
    per side and zero JSON escaping: a task's AIGER image, and a
    disproof's counter-example as a ['0']/['1'] string.  After the
    worker's opening [Shard_ready], each [Shard_check] yields exactly
    one reply, in order. *)

(** {1 Wire I/O counters}

    Mutable per-connection counters threaded through the sends and
    receives below: payload-inclusive bytes and frames in each
    direction. *)

type io = {
  mutable io_bytes_tx : int;
  mutable io_bytes_rx : int;
  mutable io_frames_tx : int;
  mutable io_frames_rx : int;
}

val io_create : unit -> io

(** {1 Frame size cap}

    A frame (header + trailer) larger than the cap is rejected on both
    sides before any allocation.  Process-global; defaults to 256 MB,
    far above any planned shard.  {!set_max_frame} lowers it so the
    boundary can be tested, clamped to a 64 KiB floor so control frames
    always fit. *)

val max_frame : unit -> int
val set_max_frame : int -> unit

(** {1 Messages}

    Coordinator ↔ worker messages for multi-process sharded sweeping
    ({!Check}). *)

type shard_task =
  | Shard_check of {
      shard : int;
      aiger : string;  (** binary AIGER of the shard's sub-miter *)
      deadline_in : float option;
    }  (** check one shard end to end *)

type shard_reply =
  | Shard_ready  (** sent once at worker startup *)
  | Shard_verdict of {
      shard : int;
      verdict : Simsweep.Engine.outcome;  (** over the shard's sub-miter *)
      wall_s : float;
      conflicts : int;
    }
  | Shard_failed of { shard : int; msg : string }
      (** the task's AIGER bytes did not parse.  The worker stays alive;
          the coordinator settles the shard undecided. *)

(** {1 Sending and receiving}

    Blocking I/O on buffered channels.  A send writes one frame and
    flushes; it raises [Invalid_argument] when the frame exceeds
    {!max_frame}, and whatever the channel raises when the peer is
    gone.  [io], when given, accumulates the frame's bytes. *)

(** Why a receive returned no message. *)
type error =
  | Eof  (** the peer closed the stream cleanly, between frames *)
  | Bad of string
      (** a truncated, oversized or unparsable frame, or a frame that
          is not a message of the expected kind *)

val send_task : ?io:io -> out_channel -> shard_task -> unit
val recv_task : ?io:io -> in_channel -> (shard_task, error) result
val send_reply : ?io:io -> out_channel -> shard_reply -> unit
val recv_reply : ?io:io -> in_channel -> (shard_reply, error) result
