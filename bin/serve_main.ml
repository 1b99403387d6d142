(* simsweep-serve: the persistent sweep daemon, and a script client.

   Daemon mode (default): listen on a Unix socket or TCP port, serve
   concurrent shell-script and direct-CEC requests with one shared pool
   and one cross-request equivalence cache.

   Client mode (--connect): send a shell script to a running daemon and
   print the response — the scripting companion to [simsweep-cec
   --server]. *)

let serve socket tcp cache_entries cache_mb timeout num_domains max_frame_mb =
  let addr =
    match tcp with
    | Some spec -> (
        match Serve.Client.parse_addr spec with
        | Serve.Server.Tcp _ as a -> a
        | Serve.Server.Unix_path _ ->
            prerr_endline "error: --tcp wants HOST:PORT";
            exit 2)
    | None -> Serve.Server.Unix_path socket
  in
  let pool =
    match num_domains with
    | Some n -> Some (Par.Pool.create ~num_domains:n ())
    | None -> None
  in
  let config =
    {
      Serve.Server.addr;
      cache_entries;
      cache_bytes = cache_mb * 1_000_000;
      default_timeout_s = timeout;
      max_frame_bytes = max_frame_mb * 1024 * 1024;
      pool;
    }
  in
  let srv =
    match Serve.Server.start ~config () with
    | srv -> srv
    | exception Failure e ->
        Printf.eprintf "error: %s\n" e;
        exit 2
  in
  (match Serve.Server.sockaddr srv with
  | Unix.ADDR_UNIX path -> Printf.printf "listening on %s\n%!" path
  | Unix.ADDR_INET (ip, port) ->
      Printf.printf "listening on %s:%d\n%!" (Unix.string_of_inet_addr ip) port);
  Serve.Server.wait srv;
  0

let run_client addr script timeout =
  match Serve.Client.connect (Serve.Client.parse_addr addr) with
  | Error e ->
      Printf.eprintf "error: cannot connect to %s: %s\n" addr e;
      2
  | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let req = Shard.Protocol.Script { script; timeout_s = timeout } in
      (match Serve.Client.request c req with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          2
      | Ok r ->
          print_string r.Shard.Protocol.output;
          if
            r.Shard.Protocol.output <> ""
            && r.Shard.Protocol.output.[String.length r.Shard.Protocol.output - 1]
               <> '\n'
          then print_newline ();
          if r.Shard.Protocol.ok then 0
          else begin
            Printf.eprintf "error: %s\n" r.Shard.Protocol.output;
            2
          end)

let main connect script script_file socket tcp cache_entries cache_mb timeout
    num_domains max_frame_mb =
  match connect with
  | Some addr -> (
      match (script, script_file) with
      | Some s, None -> run_client addr s timeout
      | None, Some f -> (
          match In_channel.with_open_bin f In_channel.input_all with
          | s -> run_client addr s timeout
          | exception Sys_error e ->
              Printf.eprintf "error: %s\n" e;
              2)
      | None, None -> run_client addr (In_channel.input_all stdin) timeout
      | Some _, Some _ ->
          prerr_endline "error: give --script or a FILE, not both";
          2)
  | None ->
      serve socket tcp cache_entries cache_mb timeout num_domains max_frame_mb

open Cmdliner

let connect =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
         ~doc:"Client mode: send a script to the daemon at ADDR (a socket \
               path or HOST:PORT) instead of serving.")

let script =
  Arg.(value & opt (some string) None & info [ "script" ] ~docv:"TEXT"
         ~doc:"With --connect: the script text to run (default: read a \
               FILE argument or stdin).")

let script_file =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"With --connect: script file to send.")

let socket =
  Arg.(value & opt string "simsweep.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path to listen on.")

let tcp =
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Listen on TCP instead of a Unix socket (port 0 picks an \
               ephemeral port, printed on startup).")

let cache_entries =
  Arg.(value & opt int 1_000_000 & info [ "cache-entries" ] ~docv:"N"
         ~doc:"Equivalence-cache entry cap (PO verdicts + proved pairs).")

let cache_mb =
  Arg.(value & opt int 256 & info [ "cache-mb" ] ~docv:"MB"
         ~doc:"Equivalence-cache memory cap in megabytes (cone keys can be \
               large, so the entry cap alone does not bound memory).")

let timeout =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Daemon: default per-request deadline; client: deadline sent \
               with the request.")

let num_domains =
  Arg.(value & opt (some int) None & info [ "j"; "domains" ] ~docv:"N"
         ~doc:"Worker domains of the shared pool (default: \
               machine-dependent).")

let max_frame_mb =
  Arg.(value & opt int 256 & info [ "max-frame-mb" ] ~docv:"MB"
         ~doc:"Protocol frame cap (header + binary payload) in megabytes; \
               bounds the largest AIGER a request may carry.")

let cmd =
  let doc = "persistent sweep daemon (CEC as a service)" in
  Cmd.v
    (Cmd.info "simsweep-serve" ~doc)
    Term.(
      const main $ connect $ script $ script_file $ socket $ tcp
      $ cache_entries $ cache_mb $ timeout $ num_domains $ max_frame_mb)

let () =
  (* A daemon hosting shard requests re-execs itself as the worker, so
     the worker hook must run first. *)
  Shard.Worker.maybe_become_worker ();
  exit (Cmd.eval' cmd)
