(* The sweep daemon: protocol framing, equivalence cache, FIFO
   scheduler, and end-to-end service over a Unix socket. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* {2 Protocol} *)

let roundtrip_request req =
  let hdr, payload = Serve.Protocol.request_to_frame req in
  match Serve.Protocol.(request_of_frame { hdr; payload }) with
  | Ok r -> r
  | Error e -> Alcotest.failf "request did not roundtrip: %s" e

let test_protocol_json () =
  List.iter
    (fun req -> assert (roundtrip_request req = req))
    [
      Serve.Protocol.Ping;
      Serve.Protocol.Cache_stats;
      Serve.Protocol.Script { script = "gen adder 4; stats"; timeout_s = None };
      Serve.Protocol.Script { script = "a\nb;c \"q;q\""; timeout_s = Some 1.5 };
      Serve.Protocol.Cec
        { aiger = "aag 0 0 0 0 0\n"; engine = "sat"; timeout_s = Some 0.25 };
    ];
  let resp =
    {
      Serve.Protocol.ok = true;
      output = "EQUIVALENT";
      cache_hits = 3;
      cache_misses = 1;
      elapsed_s = 0.125;
    }
  in
  match Serve.Protocol.(response_of_json (response_to_json resp)) with
  | Ok r -> Alcotest.(check bool) "response roundtrips" true (r = resp)
  | Error e -> Alcotest.failf "response did not roundtrip: %s" e

let test_protocol_frames () =
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd and oc = Unix.out_channel_of_descr wr in
  let j1, _ = Serve.Protocol.request_to_frame Serve.Protocol.Ping in
  let j2, _ =
    Serve.Protocol.request_to_frame
      (Serve.Protocol.Script { script = "x \"esc\\\"ape\""; timeout_s = None })
  in
  Serve.Protocol.write_frame oc j1;
  Serve.Protocol.write_frame oc j2;
  (match Serve.Protocol.read_frame ic with
  | Ok inc ->
      Alcotest.(check bool) "frame 1" true (inc.Serve.Protocol.hdr = j1);
      Alcotest.(check string) "frame 1 no payload" "" inc.Serve.Protocol.payload
  | Error e -> Alcotest.failf "frame 1: %s" e);
  (match Serve.Protocol.read_frame ic with
  | Ok inc -> Alcotest.(check bool) "frame 2" true (inc.Serve.Protocol.hdr = j2)
  | Error e -> Alcotest.failf "frame 2: %s" e);
  close_out oc;
  (match Serve.Protocol.read_frame ic with
  | Error "eof" -> ()
  | Ok _ -> Alcotest.fail "expected eof"
  | Error e -> Alcotest.failf "expected eof, got: %s" e);
  close_in ic

let test_protocol_payload () =
  (* Binary trailers must survive byte-exactly — every byte value, no
     JSON escaping — and the io counters must account for them. *)
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd and oc = Unix.out_channel_of_descr wr in
  let tx = Simsweep.Telemetry.io_create () in
  let rx = Simsweep.Telemetry.io_create () in
  let payload = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  let hdr = Simsweep.Telemetry.Obj [ ("type", Simsweep.Telemetry.String "t") ] in
  Serve.Protocol.write_frame ~io:tx ~payload oc hdr;
  (match Serve.Protocol.read_frame ~io:rx ic with
  | Ok inc ->
      Alcotest.(check string) "payload intact" payload inc.Serve.Protocol.payload;
      Alcotest.(check bool) "payload_len in header" true
        (Simsweep.Telemetry.int_member "payload_len" inc.Serve.Protocol.hdr
        = Some (String.length payload))
  | Error e -> Alcotest.failf "payload frame: %s" e);
  Alcotest.(check bool) "tx counted payload" true
    Simsweep.Telemetry.(tx.io_bytes_tx > String.length payload);
  Alcotest.(check int) "tx = rx bytes" tx.Simsweep.Telemetry.io_bytes_tx
    rx.Simsweep.Telemetry.io_bytes_rx;
  Alcotest.(check int) "one frame out" 1 tx.Simsweep.Telemetry.io_frames_tx;
  Alcotest.(check int) "one frame in" 1 rx.Simsweep.Telemetry.io_frames_rx;
  close_out oc;
  close_in ic

let test_protocol_frame_cap () =
  (* The cap is configurable and enforced at the boundary on both sides.
     Alcotest runs in-process, so restore the default before leaving. *)
  let saved = Serve.Protocol.max_frame () in
  Fun.protect ~finally:(fun () -> Serve.Protocol.set_max_frame saved)
  @@ fun () ->
  Serve.Protocol.set_max_frame 65536;
  Alcotest.(check int) "floor clamps" 65536 (Serve.Protocol.max_frame ());
  (* A socketpair, not a pipe: an at-cap frame (64 KiB + framing) would
     fill a pipe's buffer and deadlock this single-threaded test. *)
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ic = Unix.in_channel_of_descr rd and oc = Unix.out_channel_of_descr wr in
  let hdr = Simsweep.Telemetry.Obj [ ("type", Simsweep.Telemetry.String "t") ] in
  let hdr_len =
    String.length (Simsweep.Telemetry.to_string hdr)
    + String.length ",\"payload_len\":65536"
  in
  (* Exactly at the cap: passes. *)
  let at_cap = String.make (65536 - hdr_len) 'x' in
  Serve.Protocol.write_frame ~payload:at_cap oc hdr;
  (match Serve.Protocol.read_frame ic with
  | Ok inc ->
      Alcotest.(check int) "at-cap payload arrives" (String.length at_cap)
        (String.length inc.Serve.Protocol.payload)
  | Error e -> Alcotest.failf "at-cap frame: %s" e);
  (* One byte over: the writer refuses before touching the socket. *)
  (match
     Serve.Protocol.write_frame ~payload:(String.make 65537 'x') oc hdr
   with
  | () -> Alcotest.fail "over-cap write accepted"
  | exception Invalid_argument _ -> ());
  (* An oversized length prefix is rejected reader-side without
     allocating. *)
  let bogus = Bytes.create 4 in
  Bytes.set_int32_be bogus 0 (Int32.of_int (Serve.Protocol.max_frame () + 1));
  output_bytes oc bogus;
  flush oc;
  close_out oc;
  (match Serve.Protocol.read_frame ic with
  | Error e -> Alcotest.(check bool) "oversized rejected" true (contains e "length")
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  close_in ic

(* {2 Equivalence cache} *)

let test_ecache_counting () =
  let cache = Serve.Ecache.create () in
  let hook, take = Serve.Ecache.view cache in
  Alcotest.(check bool) "miss" true (hook.Aig.Pcache.lookup_po "k1" = None);
  hook.Aig.Pcache.record_po "k1" Aig.Pcache.Const_false;
  Alcotest.(check bool) "hit" true
    (hook.Aig.Pcache.lookup_po "k1" = Some Aig.Pcache.Const_false);
  Alcotest.(check bool) "pair miss" false (hook.Aig.Pcache.lookup_pair "p1");
  hook.Aig.Pcache.record_pair "p1";
  Alcotest.(check bool) "pair hit" true (hook.Aig.Pcache.lookup_pair "p1");
  Alcotest.(check (pair int int)) "view counts" (2, 2) (take ());
  Alcotest.(check (pair int int)) "take resets" (0, 0) (take ());
  (* A second view counts separately but shares the store. *)
  let hook2, take2 = Serve.Ecache.view cache in
  Alcotest.(check bool) "shared" true (hook2.Aig.Pcache.lookup_pair "p1");
  Alcotest.(check (pair int int)) "view 2" (1, 0) (take2 ());
  Alcotest.(check (pair int int)) "view 1 untouched" (0, 0) (take ());
  let entries, hits, misses = Serve.Ecache.stats cache in
  Alcotest.(check int) "entries" 2 entries;
  Alcotest.(check int) "lifetime hits" 3 hits;
  Alcotest.(check int) "lifetime misses" 2 misses

let test_ecache_cap () =
  let cache = Serve.Ecache.create ~max_entries:2 () in
  let hook, _ = Serve.Ecache.view cache in
  hook.Aig.Pcache.record_pair "a";
  hook.Aig.Pcache.record_pair "b";
  hook.Aig.Pcache.record_pair "c";  (* dropped: cache is full *)
  Alcotest.(check bool) "kept a" true (hook.Aig.Pcache.lookup_pair "a");
  Alcotest.(check bool) "kept b" true (hook.Aig.Pcache.lookup_pair "b");
  Alcotest.(check bool) "dropped c" false (hook.Aig.Pcache.lookup_pair "c");
  let entries, _, _ = Serve.Ecache.stats cache in
  Alcotest.(check int) "bounded" 2 entries

let test_ecache_byte_cap () =
  (* A generous entry cap but a tiny byte budget: megabyte-scale cone
     keys must not accumulate past the byte bound. *)
  let cache = Serve.Ecache.create ~max_entries:1_000_000 ~max_bytes:4_096 () in
  let hook, _ = Serve.Ecache.view cache in
  let big i = String.make 1_500 (Char.chr (Char.code 'a' + i)) in
  hook.Aig.Pcache.record_pair (big 0);
  hook.Aig.Pcache.record_pair (big 1);
  hook.Aig.Pcache.record_pair (big 2);  (* would exceed the byte budget *)
  Alcotest.(check bool) "kept 0" true (hook.Aig.Pcache.lookup_pair (big 0));
  Alcotest.(check bool) "kept 1" true (hook.Aig.Pcache.lookup_pair (big 1));
  Alcotest.(check bool) "dropped 2" false (hook.Aig.Pcache.lookup_pair (big 2));
  Alcotest.(check bool) "bytes bounded" true
    (Serve.Ecache.bytes_used cache <= 4_096);
  (* A small key still fits: the cap is bytes, not entries. *)
  hook.Aig.Pcache.record_po "tiny" Aig.Pcache.Const_false;
  Alcotest.(check bool) "small key admitted" true
    (hook.Aig.Pcache.lookup_po "tiny" = Some Aig.Pcache.Const_false)

(* {2 Scheduler} *)

let test_scheduler_fifo () =
  let sched = Serve.Scheduler.create () in
  let mu = Mutex.create () in
  let order = ref [] in
  let gate = Semaphore.Binary.make false in
  (* First occupant holds the scheduler until both followers queued. *)
  let t0 =
    Thread.create
      (fun () ->
        Serve.Scheduler.run sched (fun () ->
            Semaphore.Binary.acquire gate;
            Mutex.lock mu;
            order := 0 :: !order;
            Mutex.unlock mu))
      ()
  in
  while Serve.Scheduler.pending sched < 1 do
    Thread.yield ()
  done;
  let follower i =
    Thread.create
      (fun () ->
        Serve.Scheduler.run sched (fun () ->
            Mutex.lock mu;
            order := i :: !order;
            Mutex.unlock mu))
      ()
  in
  let t1 = follower 1 in
  while Serve.Scheduler.pending sched < 2 do
    Thread.yield ()
  done;
  let t2 = follower 2 in
  while Serve.Scheduler.pending sched < 3 do
    Thread.yield ()
  done;
  Semaphore.Binary.release gate;
  List.iter Thread.join [ t0; t1; t2 ];
  Alcotest.(check (list int)) "served in arrival order" [ 0; 1; 2 ]
    (List.rev !order)

(* {2 End-to-end over a Unix socket} *)

let with_server f =
  Util.with_pool (fun pool ->
      let path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "simsweep-test-%d.sock" (Unix.getpid ()))
      in
      let config =
        {
          Serve.Server.addr = Serve.Server.Unix_path path;
          cache_entries = 100_000;
          cache_bytes = 256_000_000;
          default_timeout_s = None;
          max_frame_bytes = Serve.Protocol.default_max_frame;
          pool = Some pool;
        }
      in
      let srv = Serve.Server.start ~config () in
      Fun.protect ~finally:(fun () -> Serve.Server.stop srv) (fun () -> f srv path))

let client path =
  match Serve.Client.connect (Serve.Client.parse_addr path) with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let request c req =
  match Serve.Client.request c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "request: %s" e

let script ?timeout_s s = Serve.Protocol.Script { script = s; timeout_s }

let test_server_roundtrip () =
  with_server (fun _srv path ->
      let c = client path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let r = request c Serve.Protocol.Ping in
      Alcotest.(check bool) "ping ok" true r.Serve.Protocol.ok;
      Alcotest.(check string) "pong" "pong" r.Serve.Protocol.output;
      let r = request c (script "gen adder 4; store a; xorflip; miter a; cec sim")
      in
      Alcotest.(check bool) "script ok" true r.Serve.Protocol.ok;
      Alcotest.(check bool) "equivalent" true
        (contains r.Serve.Protocol.output "EQUIVALENT");
      (* Errors carry the command index and do not kill the connection. *)
      let r = request c (script "gen adder 4; frobnicate") in
      Alcotest.(check bool) "error reported" false r.Serve.Protocol.ok;
      Alcotest.(check bool) "indexed" true
        (contains r.Serve.Protocol.output "command 2");
      let r = request c Serve.Protocol.Ping in
      Alcotest.(check bool) "still alive" true r.Serve.Protocol.ok)

let test_server_cache_hits () =
  with_server (fun _srv path ->
      let run () =
        let c = client path in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        request c (script "gen multiplier 6; store a; resyn2; miter a; cec")
      in
      let cold = run () in
      Alcotest.(check bool) "cold ok" true cold.Serve.Protocol.ok;
      Alcotest.(check int) "cold has no hits" 0 cold.Serve.Protocol.cache_hits;
      Alcotest.(check bool) "cold misses" true
        (cold.Serve.Protocol.cache_misses > 0);
      (* The identical request from a fresh connection reuses the proofs. *)
      let warm = run () in
      Alcotest.(check bool) "warm ok" true warm.Serve.Protocol.ok;
      Alcotest.(check bool) "warm hits" true
        (warm.Serve.Protocol.cache_hits > 0);
      Alcotest.(check int) "warm misses" 0 warm.Serve.Protocol.cache_misses;
      let entries, hits, _ = Serve.Ecache.stats (Serve.Server.ecache _srv) in
      Alcotest.(check bool) "cache populated" true (entries > 0);
      Alcotest.(check bool) "lifetime hits" true (hits > 0))

let test_server_cec_request () =
  with_server (fun _srv path ->
      let g1 = Gen.Arith.multiplier ~bits:5 in
      let g2 = Opt.Resyn.resyn2 (Aig.Network.copy g1) in
      let miter = Aig.Miter.build g1 g2 in
      let aiger = Aig.Aiger_io.to_binary_string miter in
      let req = Serve.Protocol.Cec { aiger; engine = "combined"; timeout_s = None } in
      let c = client path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let r1 = request c req in
      Alcotest.(check bool) "ok" true r1.Serve.Protocol.ok;
      Alcotest.(check bool) "equivalent" true
        (contains r1.Serve.Protocol.output "EQUIVALENT");
      let r2 = request c req in
      Alcotest.(check bool) "repeat hits the cache" true
        (r2.Serve.Protocol.cache_hits > 0);
      Alcotest.(check int) "repeat misses nothing" 0
        r2.Serve.Protocol.cache_misses;
      (* An unparsable miter is an error, not a crash. *)
      let bad =
        request c
          (Serve.Protocol.Cec
             { aiger = "not an aiger"; engine = "sat"; timeout_s = None })
      in
      Alcotest.(check bool) "bad aiger rejected" false bad.Serve.Protocol.ok)

let test_server_sessions_isolated () =
  with_server (fun _srv path ->
      let c1 = client path and c2 = client path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close c1;
          Serve.Client.close c2)
        (fun () ->
          let r = request c1 (script "gen adder 4; store a") in
          Alcotest.(check bool) "stored in session 1" true r.Serve.Protocol.ok;
          let r = request c2 (script "load a") in
          Alcotest.(check bool) "invisible in session 2" false
            r.Serve.Protocol.ok;
          Alcotest.(check bool) "explains" true
            (contains r.Serve.Protocol.output "no stored network")))

let test_server_concurrent_clients () =
  with_server (fun _srv path ->
      let results = Array.make 4 None in
      let worker i =
        Thread.create
          (fun () ->
            let c = client path in
            Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
            let name = Printf.sprintf "n%d" i in
            let r =
              request c
                (script
                   (Printf.sprintf
                      "gen adder %d; store %s; xorflip; miter %s; cec sim"
                      (4 + i) name name))
            in
            results.(i) <- Some r)
          ()
      in
      let threads = List.init 4 worker in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Some r ->
              Alcotest.(check bool) (Printf.sprintf "client %d ok" i) true
                r.Serve.Protocol.ok;
              Alcotest.(check bool)
                (Printf.sprintf "client %d equivalent" i)
                true
                (contains r.Serve.Protocol.output "EQUIVALENT")
          | None -> Alcotest.failf "client %d got no response" i)
        results)

let test_server_deadline () =
  with_server (fun _srv path ->
      let c = client path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (* A deadline that expired before the engines first poll it: the
         check must come back UNDECIDED, not run to completion — for
         every engine the shell can dispatch, so no daemon request can
         dodge its deadline by picking the right engine. *)
      List.iter
        (fun last ->
          let r =
            request c
              (script ~timeout_s:1e-9
                 ("gen multiplier 8; store a; resyn2; miter a; " ^ last))
          in
          Alcotest.(check bool) (last ^ " ok") true r.Serve.Protocol.ok;
          Alcotest.(check bool) (last ^ " undecided") true
            (contains r.Serve.Protocol.output "UNDECIDED"))
        [
          "cec sat"; "cec satdirect"; "cec sim"; "cec bdd"; "cec portfolio";
          "cec partitioned"; "cec combined"; "certify";
        ])

let test_server_client_hangup () =
  (* A client that sends a request and hangs up without reading the
     response: the response write hits a closed socket, which without
     SIGPIPE ignored would kill the whole daemon (here: this test
     process).  The daemon must drop that client alone and keep serving
     others. *)
  with_server (fun _srv path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr fd in
      let hdr, payload =
        Serve.Protocol.request_to_frame
          (script "gen multiplier 6; store a; resyn2; miter a; cec sim")
      in
      Serve.Protocol.write_frame ~payload oc hdr;
      (* Close without ever reading the response frame. *)
      Unix.close fd;
      (* The daemon finishes the abandoned request, then serves us. *)
      let c = client path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let r = request c Serve.Protocol.Ping in
      Alcotest.(check bool) "daemon survived the hangup" true
        r.Serve.Protocol.ok)

let test_server_socket_in_use () =
  (* Starting a second daemon on a live daemon's socket path must fail
     loudly instead of silently unlinking the first one's endpoint. *)
  with_server (fun _srv path ->
      (match Serve.Server.start ~config:{ Serve.Server.default_config with
                                          addr = Serve.Server.Unix_path path }
               () with
      | _ -> Alcotest.fail "second daemon bound a live socket"
      | exception Failure msg ->
          Alcotest.(check bool) "explains" true (contains msg "listening"));
      (* The first daemon's endpoint is untouched. *)
      let c = client path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let r = request c Serve.Protocol.Ping in
      Alcotest.(check bool) "original daemon still serves" true
        r.Serve.Protocol.ok)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "json roundtrip" `Quick test_protocol_json;
          Alcotest.test_case "framing" `Quick test_protocol_frames;
          Alcotest.test_case "binary payload" `Quick test_protocol_payload;
          Alcotest.test_case "frame cap boundary" `Quick
            test_protocol_frame_cap;
        ] );
      ( "ecache",
        [
          Alcotest.test_case "counting views" `Quick test_ecache_counting;
          Alcotest.test_case "size cap" `Quick test_ecache_cap;
          Alcotest.test_case "byte cap" `Quick test_ecache_byte_cap;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "fifo order" `Quick test_scheduler_fifo ] );
      ( "server",
        [
          Alcotest.test_case "roundtrip" `Quick test_server_roundtrip;
          Alcotest.test_case "cache hits" `Quick test_server_cache_hits;
          Alcotest.test_case "direct cec" `Quick test_server_cec_request;
          Alcotest.test_case "session isolation" `Quick
            test_server_sessions_isolated;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "deadline" `Quick test_server_deadline;
          Alcotest.test_case "client hangup" `Quick test_server_client_hangup;
          Alcotest.test_case "socket in use" `Quick test_server_socket_in_use;
        ] );
    ]
