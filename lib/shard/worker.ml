module Pr = Protocol

let mode_env = "SIMSWEEP_SHARD_WORKER_MODE"
let domains_env = "SIMSWEEP_SHARD_DOMAINS"

(* --- Shard_check ------------------------------------------------------ *)

(* The sweeping engine, then the SAT sweeper to completion on whatever the
   engine left undecided. *)
let run_check ~pool ~shard ~aiger ~deadline_in =
  let t0 = Unix.gettimeofday () in
  let g = Aig.Aiger_io.of_string aiger in
  let cancel =
    Option.map (fun d -> Par.Cancel.create ~deadline_in:d ()) deadline_in
  in
  let c =
    Simsweep.Engine.check_with_fallback ~config:Simsweep.Config.scaled ?cancel
      ~pool:(Lazy.force pool) g
  in
  let verdict =
    match c.Simsweep.Engine.final with
    | Simsweep.Engine.Proved -> Pr.Sv_proved
    | Simsweep.Engine.Disproved (cex, po) ->
        Pr.Sv_disproved { cex = Pr.cex_to_bits cex; po }
    | Simsweep.Engine.Undecided -> Pr.Sv_undecided
  in
  let conflicts =
    match c.Simsweep.Engine.sat_stats with
    | Some s -> s.Sat.Sweep.conflicts
    | None -> 0
  in
  Pr.Shard_verdict
    { shard; verdict; wall_s = Unix.gettimeofday () -. t0; conflicts }

(* --- protocol loop ---------------------------------------------------- *)

let handle ~pool (Pr.Shard_check { shard; aiger; deadline_in }) =
  (* AIGER bytes that do not parse are a framed [Shard_failed], never a
     crash: the worker stays up and the coordinator settles that shard
     undecided. *)
  try run_check ~pool ~shard ~aiger ~deadline_in
  with Aig.Aiger_io.Parse_error msg ->
    Pr.Shard_failed { shard; msg = "bad aiger: " ^ msg }

let serve ?(num_domains = 1) ic oc =
  let pool = lazy (Par.Pool.create ~num_domains ()) in
  Pr.write_frame oc (fst (Pr.shard_reply_to_frame Pr.Shard_ready));
  let write_reply reply =
    let hdr, payload = Pr.shard_reply_to_frame reply in
    Pr.write_frame ~payload oc hdr
  in
  let rec loop () =
    match Pr.read_frame ic with
    | Error e when String.starts_with ~prefix:"eof" e ->
        () (* coordinator gone *)
    | Error e ->
        (* Framing is length-prefixed, so a bad header is survivable. *)
        Printf.eprintf "shard worker: bad frame: %s\n%!" e;
        loop ()
    | Ok inc -> (
        match Pr.shard_task_of_frame inc with
        | Error e ->
            Printf.eprintf "shard worker: bad task: %s\n%!" e;
            loop ()
        | Ok task ->
            write_reply (handle ~pool task);
            loop ())
  in
  loop ();
  if Lazy.is_val pool then Par.Pool.shutdown (Lazy.force pool)

let worker_main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Keep the protocol fd for ourselves and point stdout at stderr so any
     stray print (engine debug, libraries) cannot corrupt the frames. *)
  let proto_out = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let ic = Unix.in_channel_of_descr Unix.stdin in
  let oc = Unix.out_channel_of_descr proto_out in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let num_domains =
    match Sys.getenv_opt domains_env with
    | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)
    | None -> 1
  in
  (try serve ~num_domains ic oc
   with e ->
     Printf.eprintf "shard worker: %s\n%!" (Printexc.to_string e);
     exit 1);
  exit 0

let hooked = Atomic.make false

let maybe_become_worker () =
  match Sys.getenv_opt mode_env with
  | Some "1" -> worker_main ()
  | _ -> Atomic.set hooked true

let hosts_workers () = Atomic.get hooked
