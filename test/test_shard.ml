(* Multi-process sharded sweeping: the frame protocol and its codecs,
   plan shape, counter-example lifting across shard PI renumbering,
   verdict determinism for any worker count, crash rescheduling, deadline
   kill+reap (no zombies), rejected payloads and rejected disproofs. *)

let mult ~bits = Gen.Arith.multiplier ~bits

(* Equivalent-by-construction miter: a circuit against its resynthesis. *)
let equiv_miter g = Aig.Miter.build g (Opt.Resyn.light g)

(* Subtly faulty copy: PO 0 is masked with PI 0, so the miter is
   inequivalent on some inputs but no PO is constant (the fault must not
   be decidable at plan time). *)
let faulty g =
  let h = Aig.Network.copy g in
  let p0 = Aig.Network.po h 0 in
  let x0 = Aig.Lit.make (Aig.Network.pi h 0) false in
  Aig.Network.set_po h 0 (Aig.Network.add_and h p0 x0);
  h

(* Disjoint union of two miters: fresh PIs for [m2], POs appended after
   [m1]'s — [m2]'s cones live at high PI indices, so extracting them into
   a shard renumbers every PI. *)
let disjoint_union m1 m2 =
  let g = Aig.Network.copy m1 in
  let pi_map =
    Array.init (Aig.Network.num_pis m2) (fun _ -> Aig.Network.add_pi g)
  in
  let pos2 = Aig.Miter.append g m2 ~pi_map in
  Array.iter (fun l -> Aig.Network.add_po g l) pos2;
  g

let config ~workers =
  {
    Shard.Check.default_config with
    Shard.Check.workers;
    max_shard_ands = 64;
    deadline_s = Some 120.;
  }

(* --- protocol --------------------------------------------------------- *)

module Pr = Shard.Protocol
module J = Simsweep.Telemetry

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_protocol_frames () =
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd and oc = Unix.out_channel_of_descr wr in
  let j1, _ = Pr.shard_reply_to_frame Pr.Shard_ready in
  let j2, _ =
    Pr.shard_reply_to_frame
      (Pr.Shard_failed { shard = 3; msg = "x \"esc\\\"ape\"" })
  in
  Pr.write_frame oc j1;
  Pr.write_frame oc j2;
  (match Pr.read_frame ic with
  | Ok inc ->
      Alcotest.(check bool) "frame 1" true (inc.Pr.hdr = j1);
      Alcotest.(check string) "frame 1 no payload" "" inc.Pr.payload
  | Error e -> Alcotest.failf "frame 1: %s" e);
  (match Pr.read_frame ic with
  | Ok inc -> Alcotest.(check bool) "frame 2" true (inc.Pr.hdr = j2)
  | Error e -> Alcotest.failf "frame 2: %s" e);
  close_out oc;
  (match Pr.read_frame ic with
  | Error "eof" -> ()
  | Ok _ -> Alcotest.fail "expected eof"
  | Error e -> Alcotest.failf "expected eof, got: %s" e);
  close_in ic

let test_protocol_payload () =
  (* Binary trailers must survive byte-exactly — every byte value, no
     JSON escaping — and the io counters must account for them. *)
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd and oc = Unix.out_channel_of_descr wr in
  let tx = J.io_create () in
  let rx = J.io_create () in
  let payload = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  let hdr = J.Obj [ ("type", J.String "t") ] in
  Pr.write_frame ~io:tx ~payload oc hdr;
  (match Pr.read_frame ~io:rx ic with
  | Ok inc ->
      Alcotest.(check string) "payload intact" payload inc.Pr.payload;
      Alcotest.(check bool) "payload_len in header" true
        (J.int_member "payload_len" inc.Pr.hdr = Some (String.length payload))
  | Error e -> Alcotest.failf "payload frame: %s" e);
  Alcotest.(check bool) "tx counted payload" true
    (tx.J.io_bytes_tx > String.length payload);
  Alcotest.(check int) "tx = rx bytes" tx.J.io_bytes_tx rx.J.io_bytes_rx;
  Alcotest.(check int) "one frame out" 1 tx.J.io_frames_tx;
  Alcotest.(check int) "one frame in" 1 rx.J.io_frames_rx;
  close_out oc;
  close_in ic

let test_protocol_frame_cap () =
  (* The cap is enforced at the boundary on both sides.  Alcotest runs
     in-process, so restore the default before leaving. *)
  let saved = Pr.max_frame () in
  Fun.protect ~finally:(fun () -> Pr.set_max_frame saved) @@ fun () ->
  Pr.set_max_frame 65536;
  Alcotest.(check int) "floor clamps" 65536 (Pr.max_frame ());
  (* A socketpair, not a pipe: an at-cap frame (64 KiB + framing) would
     fill a pipe's buffer and deadlock this single-threaded test. *)
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ic = Unix.in_channel_of_descr rd and oc = Unix.out_channel_of_descr wr in
  let hdr = J.Obj [ ("type", J.String "t") ] in
  let hdr_len =
    String.length (J.to_string hdr) + String.length ",\"payload_len\":65536"
  in
  (* Exactly at the cap: passes. *)
  let at_cap = String.make (65536 - hdr_len) 'x' in
  Pr.write_frame ~payload:at_cap oc hdr;
  (match Pr.read_frame ic with
  | Ok inc ->
      Alcotest.(check int) "at-cap payload arrives" (String.length at_cap)
        (String.length inc.Pr.payload)
  | Error e -> Alcotest.failf "at-cap frame: %s" e);
  (* One byte over: the writer refuses before touching the socket. *)
  (match Pr.write_frame ~payload:(String.make 65537 'x') oc hdr with
  | () -> Alcotest.fail "over-cap write accepted"
  | exception Invalid_argument _ -> ());
  (* An oversized length prefix is rejected reader-side without
     allocating. *)
  let bogus = Bytes.create 4 in
  Bytes.set_int32_be bogus 0 (Int32.of_int (Pr.max_frame () + 1));
  output_bytes oc bogus;
  flush oc;
  close_out oc;
  (match Pr.read_frame ic with
  | Error e -> Alcotest.(check bool) "oversized rejected" true (contains e "length")
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  close_in ic

(* Every task and reply constructor survives encode, framing and decode;
   AIGER images and CEX bits ride the binary trailer. *)
let test_protocol_codecs () =
  let aiger = Aig.Aiger_io.to_binary_string (equiv_miter (mult ~bits:3)) in
  let through_frame (hdr, payload) =
    let rd, wr = Unix.pipe () in
    let ic = Unix.in_channel_of_descr rd
    and oc = Unix.out_channel_of_descr wr in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    Pr.write_frame ~payload oc hdr;
    close_out oc;
    match Pr.read_frame ic with
    | Ok inc -> inc
    | Error e -> Alcotest.failf "frame did not roundtrip: %s" e
  in
  List.iter
    (fun task ->
      match Pr.shard_task_of_frame (through_frame (Pr.shard_task_to_frame task)) with
      | Ok t -> Alcotest.(check bool) "task roundtrips" true (t = task)
      | Error e -> Alcotest.failf "task did not decode: %s" e)
    [
      Pr.Shard_check { shard = 0; aiger; deadline_in = None };
      Pr.Shard_check { shard = 7; aiger; deadline_in = Some 2.5 };
    ];
  (* No quit task exists: workers end at end-of-stream. *)
  Alcotest.(check bool) "shard-quit is not a task" true
    (Result.is_error
       (Pr.shard_task_of_frame
          { Pr.hdr = Simsweep.Telemetry.Obj [ ("type", String "shard-quit") ];
            payload = "" }));
  let cex = Pr.cex_to_bits [| true; false; false; true; true |] in
  Alcotest.(check string) "cex bits" "10011" cex;
  Alcotest.(check bool) "bits_to_cex inverts" true
    (Pr.bits_to_cex cex = [| true; false; false; true; true |]);
  List.iter
    (fun reply ->
      match
        Pr.shard_reply_of_frame (through_frame (Pr.shard_reply_to_frame reply))
      with
      | Ok r -> Alcotest.(check bool) "reply roundtrips" true (r = reply)
      | Error e -> Alcotest.failf "reply did not decode: %s" e)
    [
      Pr.Shard_ready;
      Pr.Shard_verdict
        { shard = 1; verdict = Pr.Sv_proved; wall_s = 0.125; conflicts = 0 };
      Pr.Shard_verdict
        { shard = 2; verdict = Pr.Sv_undecided; wall_s = 1.5; conflicts = 42 };
      Pr.Shard_verdict
        {
          shard = 3;
          verdict = Pr.Sv_disproved { cex; po = 4 };
          wall_s = 0.25;
          conflicts = 9;
        };
      Pr.Shard_failed { shard = 5; msg = "bad aiger: \"quoted\"" };
    ]

(* --- plan ------------------------------------------------------------- *)

let test_plan_pack_and_split () =
  (* A doubled miter has many tiny groups: they must pack into far fewer
     shards, covering every PO exactly once. *)
  let m = Gen.Double.times 3 (equiv_miter (Gen.Arith.adder ~bits:4)) in
  let plan = Shard.Plan.build ~max_ands:200 m in
  Alcotest.(check bool) "many groups" true (plan.Shard.Plan.groups >= 8);
  Alcotest.(check bool)
    "packed into fewer shards" true
    (List.length plan.Shard.Plan.shards < plan.Shard.Plan.groups);
  let seen = Array.make (Aig.Network.num_pos m) 0 in
  List.iter
    (fun sh ->
      List.iter (fun po -> seen.(po) <- seen.(po) + 1) sh.Shard.Plan.pos)
    plan.Shard.Plan.shards;
  (* Constant-false POs are settled at plan time; every other PO appears
     in exactly one shard. *)
  Array.iteri
    (fun po n ->
      let const_false = Aig.Network.po m po = Aig.Lit.const_false in
      Alcotest.(check int)
        (Printf.sprintf "po %d covered once" po)
        (if const_false then 0 else 1)
        n)
    seen;
  (* A single big support group must be split at PO boundaries. *)
  let big = equiv_miter (mult ~bits:6) in
  let plan2 = Shard.Plan.build ~max_ands:200 big in
  Alcotest.(check bool) "group split" true (plan2.Shard.Plan.split_groups >= 1);
  Alcotest.(check bool)
    "window shards" true
    (List.length plan2.Shard.Plan.shards > 1)

let test_lift_cex_unit () =
  let sub_cex = [| true; false; true |] in
  let lifted =
    Simsweep.Partition.lift_cex ~pi_origin:[| 5; 2; 9 |] ~num_pis:11 sub_cex
  in
  Alcotest.(check int) "width" 11 (Array.length lifted);
  Array.iteri
    (fun i v -> Alcotest.(check bool) (Printf.sprintf "pi %d" i) (i = 5 || i = 9) v)
    lifted

(* --- end to end ------------------------------------------------------- *)

let test_disproof_lifted_across_renumbering () =
  (* The faulty block sits behind an equivalent block, so its shard PIs
     are renumbered; the reported CEX must still replay on the full
     miter at the full-miter PO index. *)
  let clean = equiv_miter (mult ~bits:4) in
  let adder = Gen.Arith.adder ~bits:4 in
  let bad = Aig.Miter.build adder (faulty adder) in
  let full = disjoint_union clean bad in
  let outcome, _ = Shard.Check.check ~config:(config ~workers:2) full in
  match outcome with
  | Simsweep.Engine.Disproved (cex, po) ->
      Alcotest.(check bool)
        "po lies in the appended block" true
        (po >= Aig.Network.num_pos clean);
      Alcotest.(check int) "cex covers all pis" (Aig.Network.num_pis full)
        (Array.length cex);
      Alcotest.(check bool) "cex replays on the full miter" true
        (Sim.Cex.check full cex po)
  | Simsweep.Engine.Proved -> Alcotest.fail "faulty miter proved"
  | Simsweep.Engine.Undecided -> Alcotest.fail "faulty miter undecided"

(* Sorted (shard, verdict) pairs of a run's per-shard entries. *)
let entry_sig st =
  st.Shard.Stats.entries
  |> List.map (fun e -> (e.Shard.Stats.e_shard, e.Shard.Stats.e_verdict))
  |> List.sort compare

let test_verdict_deterministic_across_worker_counts () =
  (* Verdicts and the per-shard entries must be identical for 1-3
     workers, and every shard is settled by its worker's sweep. *)
  let eq = equiv_miter (mult ~bits:5) in
  let adder = Gen.Arith.adder ~bits:6 in
  let ineq = Aig.Miter.build adder (faulty adder) in
  let reference = ref None in
  List.iter
    (fun workers ->
      let outcome, st = Shard.Check.check ~config:(config ~workers) eq in
      (match outcome with
      | Simsweep.Engine.Proved -> ()
      | _ -> Alcotest.fail (Printf.sprintf "equivalent: %d workers" workers));
      (match !reference with
      | None -> reference := Some (entry_sig st)
      | Some r ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "entries agree across worker counts (%d)" workers)
            r (entry_sig st));
      List.iter
        (fun e -> Alcotest.(check string) "settled via" "sweep" e.Shard.Stats.e_via)
        st.Shard.Stats.entries;
      let outcome, _ = Shard.Check.check ~config:(config ~workers) ineq in
      match outcome with
      | Simsweep.Engine.Disproved (cex, po) ->
          Alcotest.(check bool)
            (Printf.sprintf "cex replays (%d workers)" workers)
            true (Sim.Cex.check ineq cex po)
      | _ -> Alcotest.fail (Printf.sprintf "inequivalent: %d workers" workers))
    [ 1; 2; 3 ]

let test_crash_rescheduling () =
  let m = equiv_miter (mult ~bits:5) in
  let config =
    {
      (config ~workers:2) with
      Shard.Check.test_kill_worker = Some 0;
      max_respawns = 2;
    }
  in
  let outcome, st = Shard.Check.check ~config m in
  Alcotest.(check bool) "a worker crashed" true (st.Shard.Stats.workers_crashed >= 1);
  Alcotest.(check bool) "a replacement spawned" true (st.Shard.Stats.respawns >= 1);
  match outcome with
  | Simsweep.Engine.Proved -> ()
  | _ -> Alcotest.fail "verdict lost with the killed worker"

let test_deadline_kills_and_reaps () =
  (* A miter the workers cannot finish in time (an 11-bit Wallace
     multiplier) with a short deadline: the check must come back without
     a disproof and with every worker process gone — no zombies, no
     survivors. *)
  let m = equiv_miter (Gen.Wallace.multiplier ~bits:11) in
  let config = { (config ~workers:2) with Shard.Check.deadline_s = Some 0.3 } in
  let outcome, st = Shard.Check.check ~config m in
  (match outcome with
  | Simsweep.Engine.Disproved _ -> Alcotest.fail "equivalent miter disproved"
  | _ -> ());
  Alcotest.(check bool) "workers were spawned" true
    (st.Shard.Stats.workers_spawned >= 2);
  (* Every worker pid must be dead (ESRCH on signal 0)... *)
  List.iter
    (fun pid ->
      let alive = match Unix.kill pid 0 with () -> true | exception _ -> false in
      Alcotest.(check bool) (Printf.sprintf "pid %d reaped" pid) false alive)
    st.Shard.Stats.worker_pids;
  (* ...and none may linger as a zombie: with all children reaped,
     waitpid(-1) raises ECHILD. *)
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.fail (Printf.sprintf "unreaped child %d" pid)

(* Set in the environment of a coordinator under test, this makes every
   re-exec'd worker a stand-in that announces itself and then answers
   every shard check according to the variable's value: ["reject"] with a
   framed [Shard_failed], ["bad-cex"] with a disproof whose counter-example
   does not replay, ["bad-po"] with a disproof at PO -1.  ["0"] is off. *)
let failing_worker_env = "SHARD_TEST_FAILING_WORKER"

let failing_worker mode =
  let module Pr = Shard.Protocol in
  let ic = Unix.in_channel_of_descr Unix.stdin in
  let oc = Unix.out_channel_of_descr Unix.stdout in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let reply r =
    let hdr, payload = Pr.shard_reply_to_frame r in
    Pr.write_frame ~payload oc hdr
  in
  reply Pr.Shard_ready;
  let disproof shard aiger po =
    (* Every test miter is equivalent, so no assignment replays. *)
    let num_pis = Aig.Network.num_pis (Aig.Aiger_io.of_string aiger) in
    let cex = Pr.cex_to_bits (Array.make num_pis false) in
    Pr.Shard_verdict
      { shard; verdict = Pr.Sv_disproved { cex; po }; wall_s = 0.; conflicts = 0 }
  in
  let rec loop () =
    match Pr.read_frame ic with
    | Error _ -> ()
    | Ok inc -> (
        match Pr.shard_task_of_frame inc with
        | Ok (Pr.Shard_check { shard; aiger; _ }) ->
            reply
              (match mode with
              | "bad-cex" -> disproof shard aiger 0
              | "bad-po" -> disproof shard aiger (-1)
              | _ -> Pr.Shard_failed { shard; msg = "rejected by the test worker" });
            loop ()
        | Error _ -> loop ())
  in
  loop ();
  exit 0

let with_stand_in mode f =
  Unix.putenv failing_worker_env mode;
  Fun.protect ~finally:(fun () -> Unix.putenv failing_worker_env "0") f

let test_failed_payload_settles_undecided () =
  (* Every dispatch is rejected.  Re-sending the same bytes cannot help,
     so each shard must settle undecided after one attempt: the check
     ends Undecided long before its deadline, never Proved. *)
  let m = equiv_miter (mult ~bits:5) in
  let config = { (config ~workers:2) with Shard.Check.deadline_s = Some 30. } in
  let t0 = Unix.gettimeofday () in
  let outcome, st =
    with_stand_in "reject" (fun () -> Shard.Check.check ~config m)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Simsweep.Engine.Undecided -> ()
  | Simsweep.Engine.Proved -> Alcotest.fail "rejected payloads proved the miter"
  | Simsweep.Engine.Disproved _ -> Alcotest.fail "equivalent miter disproved");
  Alcotest.(check bool)
    (Printf.sprintf "settled in %.1fs, well before the deadline" elapsed)
    true (elapsed < 5.);
  let shards = st.Shard.Stats.shards in
  Alcotest.(check bool) "several shards" true (shards >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "%d frames sent for %d shards" st.Shard.Stats.frames_tx shards)
    true
    (st.Shard.Stats.frames_tx <= 2 * shards);
  Alcotest.(check (list (pair int string)))
    "every shard settled undecided"
    (List.init shards (fun i -> (i, "undecided")))
    (entry_sig st);
  List.iter
    (fun e -> Alcotest.(check string) "settled via" "failed" e.Shard.Stats.e_via)
    st.Shard.Stats.entries

let test_bad_disproof_settles_undecided () =
  (* A worker disproof is checked before it is trusted or recorded: a
     counter-example that does not replay, or one at a PO index out of
     range, settles its shard undecided — never a "disproved" entry, never
     an exception out of the coordinator. *)
  let m = equiv_miter (mult ~bits:5) in
  let config = { (config ~workers:2) with Shard.Check.deadline_s = Some 30. } in
  List.iter
    (fun mode ->
      let outcome, st =
        with_stand_in mode (fun () -> Shard.Check.check ~config m)
      in
      (match outcome with
      | Simsweep.Engine.Undecided -> ()
      | Simsweep.Engine.Proved -> Alcotest.failf "%s: proved" mode
      | Simsweep.Engine.Disproved _ ->
          Alcotest.failf "%s: invalid disproof accepted" mode);
      Alcotest.(check (list (pair int string)))
        (mode ^ ": every shard settled undecided")
        (List.init st.Shard.Stats.shards (fun i -> (i, "undecided")))
        (entry_sig st))
    [ "bad-cex"; "bad-po" ]

let () =
  (* Coordinators in these tests re-exec this binary as their workers. *)
  (match Sys.getenv_opt failing_worker_env with
  | Some mode
    when mode <> "0" && Sys.getenv_opt Shard.Worker.mode_env = Some "1" ->
      failing_worker mode
  | _ -> ());
  Shard.Worker.maybe_become_worker ();
  Alcotest.run "shard"
    [
      ( "protocol",
        [
          Alcotest.test_case "framing" `Quick test_protocol_frames;
          Alcotest.test_case "binary payload" `Quick test_protocol_payload;
          Alcotest.test_case "frame cap boundary" `Quick
            test_protocol_frame_cap;
          Alcotest.test_case "codec roundtrip" `Quick test_protocol_codecs;
        ] );
      ( "plan",
        [
          Alcotest.test_case "pack and split" `Quick test_plan_pack_and_split;
          Alcotest.test_case "lift_cex unit" `Quick test_lift_cex_unit;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "disproof lifted" `Quick
            test_disproof_lifted_across_renumbering;
          Alcotest.test_case "worker-count determinism" `Slow
            test_verdict_deterministic_across_worker_counts;
          Alcotest.test_case "crash rescheduling" `Quick test_crash_rescheduling;
          Alcotest.test_case "deadline kill+reap" `Quick
            test_deadline_kills_and_reaps;
          Alcotest.test_case "failed payload settles undecided" `Quick
            test_failed_payload_settles_undecided;
          Alcotest.test_case "bad disproof settles undecided" `Quick
            test_bad_disproof_settles_undecided;
        ] );
    ]
