(* The sweep daemon: accept loop + per-connection handler threads.

   Connections are cheap OS threads (they spend their life blocked on
   socket reads); the heavy work — engine runs — is serialized onto one
   shared domain pool by the FIFO scheduler, so concurrent clients get
   fair turns and the machine is never oversubscribed.  Every session
   feeds and consults the one shared equivalence cache. *)

module Protocol = Shard.Protocol

type addr = Unix_path of string | Tcp of string * int

type config = {
  addr : addr;
  cache_entries : int;
  cache_bytes : int;
  default_timeout_s : float option;
  max_frame_bytes : int;  (* protocol frame cap (header + payload) *)
  pool : Par.Pool.t option;  (* [None]: the process-wide default pool *)
}

let default_config =
  {
    addr = Unix_path "simsweep.sock";
    cache_entries = 1_000_000;
    cache_bytes = 256_000_000;
    default_timeout_s = None;
    max_frame_bytes = Protocol.default_max_frame;
    pool = None;
  }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  sockaddr : Unix.sockaddr;
  cache : Ecache.t;
  sched : Scheduler.t;
  pool : Par.Pool.t;
  stopping : bool Atomic.t;
  (* Self-pipe waking the accept loop: closing a listening socket does
     not interrupt a thread blocked in [accept], so the loop selects on
     the listen fd plus this pipe and [stop] writes one byte. *)
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  conns : (int, Thread.t) Hashtbl.t;  (* guarded by conns_mu *)
  conns_mu : Mutex.t;
}

let sockaddr t = t.sockaddr
let ecache t = t.cache

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A socket file may be left behind by a dead daemon (stale: bind would
   fail for no good reason) or owned by a live one (unlinking it would
   silently strand that daemon's clients).  Only a connection attempt
   tells the two apart. *)
let unix_socket_alive path =
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> close_noerr probe)
    (fun () ->
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> false)

let resolve_addr = function
  | Unix_path path ->
      (match (Unix.lstat path).Unix.st_kind with
      | Unix.S_SOCK ->
          if unix_socket_alive path then
            failwith
              (Printf.sprintf
                 "%s: another daemon is already listening on this socket" path)
          else Unix.unlink path  (* stale leftover of a dead daemon *)
      | _ -> ()  (* not ours to delete; bind will report the conflict *)
      | exception Unix.Unix_error (ENOENT, _, _) -> ());
      (Unix.ADDR_UNIX path, Unix.PF_UNIX)
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.ADDR_INET (ip, port), Unix.PF_INET)

let handle_request t session req =
  let started = Unix.gettimeofday () in
  let finish (result, hits, misses) =
    let elapsed_s = Unix.gettimeofday () -. started in
    match result with
    | Ok output ->
        {
          Protocol.ok = true;
          output;
          cache_hits = hits;
          cache_misses = misses;
          elapsed_s;
        }
    | Error e ->
        { Protocol.ok = false; output = e; cache_hits = hits;
          cache_misses = misses; elapsed_s }
  in
  let cancel_for timeout_s =
    match
      (match timeout_s with Some _ -> timeout_s | None -> t.config.default_timeout_s)
    with
    | Some s -> Some (Par.Cancel.create ~deadline_in:s ())
    | None -> None
  in
  match req with
  | Protocol.Ping -> finish (Ok "pong", 0, 0)
  | Protocol.Cache_stats ->
      let entries, hits, misses = Ecache.stats t.cache in
      let j =
        Simsweep.Telemetry.(
          Obj
            [ ("entries", Int entries); ("hits", Int hits);
              ("misses", Int misses);
              ("bytes", Int (Ecache.bytes_used t.cache)) ])
      in
      finish (Ok (Simsweep.Telemetry.to_string j), 0, 0)
  | Protocol.Script { script; timeout_s } ->
      let cancel = cancel_for timeout_s in
      Scheduler.run t.sched (fun () ->
          let r, h, m = Session.run_script session ?cancel script in
          finish (r, h, m))
  | Protocol.Cec { aiger; engine; timeout_s } ->
      let cancel = cancel_for timeout_s in
      Scheduler.run t.sched (fun () ->
          let r, h, m = Session.run_cec session ?cancel ~aiger ~engine () in
          finish (r, h, m))

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let session = Session.create ~pool:t.pool ~ecache:t.cache in
  let rec loop () =
    match Protocol.read_frame ic with
    | Error _ -> ()  (* client went away or spoke garbage: drop it *)
    | Ok inc ->
        let resp =
          match Protocol.request_of_frame inc with
          | Error e -> Protocol.error_response ("bad request: " ^ e)
          | Ok req -> (
              try handle_request t session req
              with e ->
                Protocol.error_response
                  ("internal error: " ^ Printexc.to_string e))
        in
        (* A write failure means the client hung up mid-request.  With
           SIGPIPE ignored (see [start]) the write surfaces as
           EPIPE/ECONNRESET — through the buffered channel as [Sys_error],
           or directly as [Unix_error]. *)
        (match Protocol.write_frame oc (Protocol.response_to_json resp) with
        | () -> loop ()
        | exception (Sys_error _ | Unix.Unix_error _) -> ())
  in
  Fun.protect ~finally:(fun () -> close_noerr fd) loop

let accept_loop t =
  let next_id = ref 0 in
  let running = ref true in
  while !running do
    match Unix.select [ t.listen_fd; t.stop_rd ] [] [] (-1.) with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
        if Atomic.get t.stopping || List.mem t.stop_rd readable then
          running := false
        else if List.mem t.listen_fd readable then begin
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error (_, _, _) ->
              if Atomic.get t.stopping then running := false
          | fd, _ ->
              let id = !next_id in
              incr next_id;
              let th =
                Thread.create
                  (fun () ->
                    Fun.protect
                      ~finally:(fun () ->
                        Mutex.lock t.conns_mu;
                        Hashtbl.remove t.conns id;
                        Mutex.unlock t.conns_mu)
                      (fun () -> handle_conn t fd))
                  ()
              in
              Mutex.lock t.conns_mu;
              Hashtbl.replace t.conns id th;
              Mutex.unlock t.conns_mu
        end
  done

let start ?(config = default_config) () =
  (* A client that disconnects before reading its response would otherwise
     deliver SIGPIPE on the response write, whose default disposition kills
     the whole process — one impatient client must not take down the warm
     cache for everyone.  Ignored, the write fails with EPIPE and the
     connection handler drops that client alone. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> () (* platform without SIGPIPE *));
  Protocol.set_max_frame config.max_frame_bytes;
  let sockaddr, domain = resolve_addr config.addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match config.addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_path _ -> ());
  Unix.bind fd sockaddr;
  Unix.listen fd 64;
  let stop_rd, stop_wr = Unix.pipe () in
  let t =
    {
      config;
      listen_fd = fd;
      sockaddr = Unix.getsockname fd;
      cache =
        Ecache.create ~max_entries:config.cache_entries
          ~max_bytes:config.cache_bytes ();
      sched = Scheduler.create ();
      pool =
        (match config.pool with
        | Some p -> p
        | None -> Par.Pool.default ());
      stopping = Atomic.make false;
      stop_rd;
      stop_wr;
      accept_thread = None;
      conns = Hashtbl.create 16;
      conns_mu = Mutex.create ();
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let wait t = match t.accept_thread with Some th -> Thread.join th | None -> ()

let stop t =
  Atomic.set t.stopping true;
  (try ignore (Unix.write t.stop_wr (Bytes.make 1 '!') 0 1)
   with Unix.Unix_error _ -> ());
  wait t;
  close_noerr t.listen_fd;
  close_noerr t.stop_rd;
  close_noerr t.stop_wr;
  (* Let in-flight connections drain; new ones can no longer arrive. *)
  let snapshot () =
    Mutex.lock t.conns_mu;
    let l = Hashtbl.fold (fun _ th acc -> th :: acc) t.conns [] in
    Mutex.unlock t.conns_mu;
    l
  in
  List.iter Thread.join (snapshot ());
  match t.config.addr with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
