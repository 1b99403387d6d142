(** CEC as a service: a persistent sweep daemon.

    The server listens on a Unix-domain or TCP socket and speaks the
    length-prefixed JSON {!Shard.Protocol}.  Each connection gets an isolated
    {!Session} (its own current network and store) running on its own
    thread; heavy work is serialized onto one shared domain pool in fair
    FIFO order ({!Scheduler}); every request may carry a wall-clock
    timeout enforced by a {!Par.Cancel} deadline token; and all sessions
    share one cross-request equivalence cache ({!Ecache}), so a miter —
    or any of its internal node pairs — proved once is never proved
    again, whichever client asks next. *)

type addr = Unix_path of string | Tcp of string * int

type config = {
  addr : addr;
  cache_entries : int;  (** equivalence-cache entry cap *)
  cache_bytes : int;
      (** equivalence-cache byte cap (cone keys can be megabytes each, so
          the entry cap alone bounds no memory) *)
  default_timeout_s : float option;
      (** applied to requests that carry no timeout of their own *)
  max_frame_bytes : int;
      (** protocol frame cap, header + payload
          ({!Shard.Protocol.set_max_frame}, applied at {!start}) *)
  pool : Par.Pool.t option;  (** [None]: the process-wide default pool *)
}

(** Unix socket [simsweep.sock], 1M cache entries / 256 MB, no timeout,
    256 MB frame cap. *)
val default_config : config

type t

(** Bind, listen and start the accept loop (on its own thread); returns
    immediately.  Ignores SIGPIPE process-wide, so a client that hangs up
    before reading its response costs only that connection.  A stale Unix
    socket file (no daemon answers a probe connect) is removed before
    bind; raises [Failure] when a live daemon already listens on the
    requested path. *)
val start : ?config:config -> unit -> t

(** The bound address — useful with [Tcp (host, 0)] (ephemeral port). *)
val sockaddr : t -> Unix.sockaddr

val ecache : t -> Ecache.t

(** Block until the accept loop exits (i.e. until {!stop}). *)
val wait : t -> unit

(** Stop accepting, drain in-flight connections, remove a Unix socket
    file.  Blocks until every connection handler has returned. *)
val stop : t -> unit
