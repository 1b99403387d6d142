(* Multi-process sharded sweeping: the wire protocol's messages and bytes,
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

(* One support group whose outputs share inputs but little logic: blocks
   of random logic over overlapping PI windows, every output gated by PI
   0, against its resynthesis.  Its POs can be chunked without copying
   much of the cone, so the planner splits it. *)
let chained_blocks ?(seed = 1) ~blocks () =
  let g = Aig.Network.create () in
  let pis = Array.init ((4 * blocks) + 4) (fun _ -> Aig.Network.add_pi g) in
  let gate = pis.(0) in
  for b = 0 to blocks - 1 do
    let block = Util.random_network ~pis:8 ~nodes:60 ~pos:2 (seed + b) in
    Array.iter
      (fun l -> Aig.Network.add_po g (Aig.Network.add_and g l gate))
      (Aig.Miter.append g block ~pi_map:(Array.sub pis (4 * b) 8))
  done;
  equiv_miter g

let config ~workers =
  {
    Shard.Check.default_config with
    Shard.Check.workers;
    max_shard_ands = 64;
    deadline_s = Some 120.;
  }

(* --- protocol --------------------------------------------------------- *)

module Pr = Shard.Protocol

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let pipe () =
  let rd, wr = Unix.pipe () in
  (Unix.in_channel_of_descr rd, Unix.out_channel_of_descr wr)

(* A frame written byte by byte: 4-byte big-endian length, then [body]. *)
let raw_frame oc body =
  let len = Bytes.create 4 in
  Bytes.set_int32_be len 0 (Int32.of_int (String.length body));
  output_bytes oc len;
  output_string oc body;
  flush oc

let test_protocol_frames () =
  let ic, oc = pipe () in
  let failed = Pr.Shard_failed { shard = 3; msg = "x \"esc\\\"ape\"" } in
  Pr.send_reply oc Pr.Shard_ready;
  Pr.send_reply oc failed;
  (match Pr.recv_reply ic with
  | Ok Pr.Shard_ready -> ()
  | _ -> Alcotest.fail "message 1");
  (match Pr.recv_reply ic with
  | Ok r -> Alcotest.(check bool) "message 2" true (r = failed)
  | Error _ -> Alcotest.fail "message 2");
  close_out oc;
  (match Pr.recv_reply ic with
  | Error Pr.Eof -> ()
  | Ok _ -> Alcotest.fail "expected eof"
  | Error (Pr.Bad e) -> Alcotest.failf "expected eof, got: %s" e);
  close_in ic

let test_protocol_payload () =
  (* Binary trailers must survive byte-exactly — every byte value, no
     JSON escaping — and the io counters must account for them. *)
  let ic, oc = pipe () in
  let tx = Pr.io_create () in
  let rx = Pr.io_create () in
  let aiger = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  Pr.send_task ~io:tx oc (Pr.Shard_check { shard = 1; aiger; deadline_in = None });
  (match Pr.recv_task ~io:rx ic with
  | Ok (Pr.Shard_check t) -> Alcotest.(check string) "payload intact" aiger t.aiger
  | Error _ -> Alcotest.fail "payload frame");
  (* The header announces the trailer: 4 + header + payload bytes. *)
  let hdr = {|{"type":"shard-check","shard":1,"payload_len":4096}|} in
  Alcotest.(check int) "tx counted header and payload"
    (4 + String.length hdr + String.length aiger)
    tx.Pr.io_bytes_tx;
  Alcotest.(check int) "tx = rx bytes" tx.Pr.io_bytes_tx rx.Pr.io_bytes_rx;
  Alcotest.(check int) "one frame out" 1 tx.Pr.io_frames_tx;
  Alcotest.(check int) "one frame in" 1 rx.Pr.io_frames_rx;
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
  let task aiger = Pr.Shard_check { shard = 0; aiger; deadline_in = None } in
  let hdr_len =
    String.length {|{"type":"shard-check","shard":0,"payload_len":65536}|}
  in
  (* Exactly at the cap: passes. *)
  let at_cap = String.make (65536 - hdr_len) 'x' in
  Pr.send_task oc (task at_cap);
  (match Pr.recv_task ic with
  | Ok (Pr.Shard_check t) ->
      Alcotest.(check int) "at-cap payload arrives" (String.length at_cap)
        (String.length t.aiger)
  | Error _ -> Alcotest.fail "at-cap frame");
  (* One byte over: the writer refuses before touching the socket. *)
  (match Pr.send_task oc (task (String.make (65536 - hdr_len + 1) 'x')) with
  | () -> Alcotest.fail "over-cap write accepted"
  | exception Invalid_argument _ -> ());
  (* An oversized length prefix is rejected reader-side without
     allocating. *)
  let bogus = Bytes.create 4 in
  Bytes.set_int32_be bogus 0 (Int32.of_int (Pr.max_frame () + 1));
  output_bytes oc bogus;
  flush oc;
  close_out oc;
  (match Pr.recv_task ic with
  | Error (Pr.Bad e) -> Alcotest.(check bool) "oversized rejected" true (contains e "length")
  | _ -> Alcotest.fail "oversized frame accepted");
  close_in ic

(* Every task and reply survives a send and a receive; AIGER images and
   CEX bits ride the binary trailer. *)
let test_protocol_codecs () =
  let aiger = Aig.Aiger_io.to_binary_string (equiv_miter (mult ~bits:3)) in
  let through send recv msg =
    let ic, oc = pipe () in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    send oc msg;
    close_out oc;
    match recv ic with
    | Ok m -> m
    | Error _ -> Alcotest.fail "message did not roundtrip"
  in
  List.iter
    (fun task ->
      Alcotest.(check bool) "task roundtrips" true
        (through (Pr.send_task ?io:None) (Pr.recv_task ?io:None) task = task))
    [
      Pr.Shard_check { shard = 0; aiger; deadline_in = None };
      Pr.Shard_check { shard = 7; aiger; deadline_in = Some 2.5 };
    ];
  List.iter
    (fun reply ->
      Alcotest.(check bool) "reply roundtrips" true
        (through (Pr.send_reply ?io:None) (Pr.recv_reply ?io:None) reply = reply))
    [
      Pr.Shard_ready;
      Pr.Shard_verdict
        { shard = 1; verdict = Simsweep.Engine.Proved; wall_s = 0.125; conflicts = 0 };
      Pr.Shard_verdict
        { shard = 2; verdict = Simsweep.Engine.Undecided; wall_s = 1.5; conflicts = 42 };
      Pr.Shard_verdict
        {
          shard = 3;
          verdict = Simsweep.Engine.Disproved ([| true; false; false; true; true |], 4);
          wall_s = 0.25;
          conflicts = 9;
        };
      Pr.Shard_failed { shard = 5; msg = "bad aiger: \"quoted\"" };
    ]

(* The bytes on the wire: a disproof's header and its CEX bits as a
   '0'/'1' trailer; and frames that are no message — a truncated frame,
   bad JSON, and a [shard-quit] (no quit task exists: workers end at
   end-of-stream). *)
let test_protocol_raw_bytes () =
  let ic, oc = pipe () in
  Pr.send_reply oc
    (Pr.Shard_verdict
       {
         shard = 3;
         verdict = Simsweep.Engine.Disproved ([| true; false; false; true; true |], 4);
         wall_s = 0.25;
         conflicts = 9;
       });
  close_out oc;
  let bytes = In_channel.input_all ic in
  close_in ic;
  let hdr =
    {|{"type":"shard-verdict","shard":3,"wall_s":0.25,"conflicts":9,"verdict":"disproved","po":4,"payload_len":5}|}
  in
  Alcotest.(check int) "length prefix" (String.length hdr)
    (Int32.to_int (String.get_int32_be bytes 0));
  Alcotest.(check string) "header and cex bits" (hdr ^ "10011")
    (String.sub bytes 4 (String.length bytes - 4));
  let bad name write recv =
    let ic, oc = pipe () in
    write oc;
    close_out oc;
    (match recv ic with
    | Error (Pr.Bad _) -> ()
    | Error Pr.Eof -> Alcotest.failf "%s: reported as a clean end-of-stream" name
    | Ok () -> Alcotest.failf "%s: accepted" name);
    close_in ic
  in
  let task ic = Result.map ignore (Pr.recv_task ic) in
  let reply ic = Result.map ignore (Pr.recv_reply ic) in
  bad "truncated frame"
    (fun oc ->
      output_string oc "\000\000\000\020{\"type\":";
      flush oc)
    reply;
  bad "bad json" (fun oc -> raw_frame oc "{\"type\": shard-ready}") reply;
  bad "shard-quit" (fun oc -> raw_frame oc {|{"type":"shard-quit"}|}) task

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
  (* A single big support group whose POs share little logic must be
     split at PO boundaries. *)
  let big = chained_blocks ~blocks:12 () in
  Alcotest.(check int) "one non-constant support group" 1
    (List.length
       (List.filter
          (fun (group, _) ->
            List.exists (fun po -> Aig.Lit.node (Aig.Network.po big po) <> 0) group)
          (Shard.Plan.groups big)));
  let plan2 = Shard.Plan.build ~max_ands:200 big in
  Alcotest.(check bool) "group split" true (plan2.Shard.Plan.split_groups >= 1);
  Alcotest.(check bool)
    "window shards" true
    (List.length plan2.Shard.Plan.shards > 1)

let test_plan_keeps_multiplier_whole () =
  (* Every PO of a multiplier reads most of its cone: chunking it would
     copy the cone into every chunk, so the group stays one shard. *)
  let m = equiv_miter (mult ~bits:6) in
  let plan = Shard.Plan.build ~max_ands:200 m in
  Alcotest.(check int) "one shard" 1 (List.length plan.Shard.Plan.shards);
  Alcotest.(check int) "no split" 0 plan.Shard.Plan.split_groups

(* Over random miters and budgets: a split group's shards hold at most
   3/2 of the group's cone, and every non-constant PO lands in exactly
   one shard. *)
let prop_plan_bounded_split =
  QCheck.Test.make ~name:"split shards within 3/2 of group"
    ~count:100 Util.arb_seed (fun seed ->
      let m =
        match seed mod 3 with
        | 0 -> chained_blocks ~seed ~blocks:(2 + (seed mod 7)) ()
        | 1 -> equiv_miter (Util.random_network ~pis:8 ~nodes:120 ~pos:6 seed)
        | _ ->
            disjoint_union
              (chained_blocks ~seed ~blocks:3 ())
              (equiv_miter (mult ~bits:(3 + (seed mod 3))))
      in
      let max_ands = 16 + (seed mod 300) in
      let plan = Shard.Plan.build ~max_ands m in
      let owner = Array.make (Aig.Network.num_pos m) (-1) in
      let once =
        List.for_all
          (fun sh ->
            List.for_all
              (fun po ->
                let fresh = owner.(po) < 0 in
                owner.(po) <- sh.Shard.Plan.id;
                fresh)
              sh.Shard.Plan.pos)
          plan.Shard.Plan.shards
      in
      let covered =
        List.for_all
          (fun po ->
            (owner.(po) >= 0)
            = (Aig.Lit.node (Aig.Network.po m po) <> 0))
          (List.init (Aig.Network.num_pos m) Fun.id)
      in
      let bounded =
        List.for_all
          (fun group ->
            let ids =
              List.sort_uniq compare
                (List.filter_map
                   (fun po -> if owner.(po) < 0 then None else Some owner.(po))
                   group)
            in
            List.compare_length_with ids 1 <= 0
            ||
            let ands =
              List.fold_left
                (fun a sh ->
                  if List.mem sh.Shard.Plan.id ids then a + sh.Shard.Plan.ands
                  else a)
                0 plan.Shard.Plan.shards
            in
            2 * ands <= 3 * Aig.Network.num_ands (fst (Aig.Cone.restrict m group)))
          (List.map fst (Shard.Plan.groups m))
      in
      plan.Shard.Plan.early = None && once && covered && bounded)

let test_lift_cex_unit () =
  (* A shard over full-miter PIs 5, 2 and 9 and POs 4 and 7. *)
  let sh =
    {
      Shard.Plan.id = 0;
      pos = [ 4; 7 ];
      sub = Aig.Network.create ();
      pi_origin = [| 5; 2; 9 |];
      ands = 0;
    }
  in
  match Shard.Plan.lift ~num_pis:11 sh [| true; false; true |] 1 with
  | Simsweep.Engine.Disproved (lifted, po) ->
      Alcotest.(check int) "full-miter po" 7 po;
      Alcotest.(check int) "width" 11 (Array.length lifted);
      Array.iteri
        (fun i v ->
          Alcotest.(check bool) (Printf.sprintf "pi %d" i) (i = 5 || i = 9) v)
        lifted
  | _ -> Alcotest.fail "lift is a disproof"

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
     workers, and every shard is settled by its worker's sweep.  Four
     copies of a multiplier plan four shards, so every worker count
     spawns all its workers. *)
  let eq = Gen.Double.times 2 (equiv_miter (mult ~bits:5)) in
  let adder = Gen.Arith.adder ~bits:6 in
  let ineq = Aig.Miter.build adder (faulty adder) in
  let reference = ref None in
  List.iter
    (fun workers ->
      let outcome, st = Shard.Check.check ~config:(config ~workers) eq in
      (match outcome with
      | Simsweep.Engine.Proved -> ()
      | _ -> Alcotest.fail (Printf.sprintf "equivalent: %d workers" workers));
      Alcotest.(check bool) "several shards" true (st.Shard.Stats.shards >= 2);
      Alcotest.(check int)
        (Printf.sprintf "workers spawned (%d)" workers)
        workers st.Shard.Stats.workers;
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

let test_one_shard_one_worker () =
  (* A multiplier plans one shard: one worker is spawned for it, not one
     per slot, and the stats count that one worker. *)
  let m = equiv_miter (mult ~bits:5) in
  let outcome, st = Shard.Check.check ~config:(config ~workers:2) m in
  Alcotest.(check bool) "proved" true (outcome = Simsweep.Engine.Proved);
  Alcotest.(check int) "one shard" 1 st.Shard.Stats.shards;
  Alcotest.(check int) "one worker" 1 st.Shard.Stats.workers;
  Alcotest.(check int) "one spawn" 1 st.Shard.Stats.workers_spawned;
  Alcotest.(check (array int)) "its task" [| 1 |] st.Shard.Stats.tasks

let test_crash_rescheduling () =
  (* Two copies of a multiplier, one shard each: worker 0 is killed
     while its sibling works on the other shard. *)
  let m = Gen.Double.double (equiv_miter (mult ~bits:5)) in
  let config =
    {
      (config ~workers:2) with
      Shard.Check.test_kill_worker = Some 0;
      max_respawns = 2;
    }
  in
  let outcome, st = Shard.Check.check ~config m in
  Alcotest.(check bool) "several shards" true (st.Shard.Stats.shards >= 2);
  Alcotest.(check int) "two workers" 2 st.Shard.Stats.workers;
  Alcotest.(check bool) "a worker crashed" true (st.Shard.Stats.workers_crashed >= 1);
  Alcotest.(check bool) "a replacement spawned" true (st.Shard.Stats.respawns >= 1);
  match outcome with
  | Simsweep.Engine.Proved -> ()
  | _ -> Alcotest.fail "verdict lost with the killed worker"

let test_deadline_kills_and_reaps () =
  (* A miter the workers cannot finish in time (four copies of a 13-bit
     Wallace multiplier, one shard each) with a short deadline: the check
     must come back without
     a disproof and with every worker process gone — no zombies, no
     survivors. *)
  let m = Gen.Double.times 2 (equiv_miter (Gen.Wallace.multiplier ~bits:13)) in
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
  Pr.send_reply oc Pr.Shard_ready;
  let disproof shard aiger po =
    (* Every test miter is equivalent, so no assignment replays. *)
    let num_pis = Aig.Network.num_pis (Aig.Aiger_io.of_string aiger) in
    Pr.Shard_verdict
      {
        shard;
        verdict = Simsweep.Engine.Disproved (Array.make num_pis false, po);
        wall_s = 0.;
        conflicts = 0;
      }
  in
  let rec loop () =
    match Pr.recv_task ic with
    | Error Pr.Eof -> ()
    | Error (Pr.Bad _) -> loop ()
    | Ok (Pr.Shard_check { shard; aiger; _ }) ->
        Pr.send_reply oc
          (match mode with
          | "bad-cex" -> disproof shard aiger 0
          | "bad-po" -> disproof shard aiger (-1)
          | _ -> Pr.Shard_failed { shard; msg = "rejected by the test worker" });
        loop ()
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
  let m = Gen.Double.double (equiv_miter (mult ~bits:5)) in
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
          Alcotest.test_case "raw bytes" `Quick test_protocol_raw_bytes;
        ] );
      ( "plan",
        [
          Alcotest.test_case "pack and split" `Quick test_plan_pack_and_split;
          Alcotest.test_case "multiplier stays whole" `Quick
            test_plan_keeps_multiplier_whole;
          Alcotest.test_case "lift_cex unit" `Quick test_lift_cex_unit;
          QCheck_alcotest.to_alcotest prop_plan_bounded_split;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "disproof lifted" `Quick
            test_disproof_lifted_across_renumbering;
          Alcotest.test_case "worker-count determinism" `Slow
            test_verdict_deterministic_across_worker_counts;
          Alcotest.test_case "one shard, one worker" `Quick
            test_one_shard_one_worker;
          Alcotest.test_case "crash rescheduling" `Quick test_crash_rescheduling;
          Alcotest.test_case "deadline kill+reap" `Quick
            test_deadline_kills_and_reaps;
          Alcotest.test_case "failed payload settles undecided" `Quick
            test_failed_payload_settles_undecided;
          Alcotest.test_case "bad disproof settles undecided" `Quick
            test_bad_disproof_settles_undecided;
        ] );
    ]
