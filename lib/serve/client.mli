(** Client side of the daemon protocol. *)

type t

(** ["host:port"] (or [":port"], meaning 127.0.0.1) is TCP; anything
    else is a Unix-domain socket path. *)
val parse_addr : string -> Server.addr

val connect : Server.addr -> (t, string) result
val close : t -> unit

(** One request/response round trip. *)
val request : t -> Shard.Protocol.request -> (Shard.Protocol.response, string) result
