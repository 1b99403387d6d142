module Pr = Protocol

let mode_env = "SIMSWEEP_SHARD_WORKER_MODE"
let domains_env = "SIMSWEEP_SHARD_DOMAINS"

(* --- Shard_check ------------------------------------------------------ *)

let check ?cancel ~pool g =
  Simsweep.Engine.check_with_fallback ~config:Simsweep.Config.scaled
    ~transfer_classes:true ?cancel ~pool g

let run_check ~pool ~shard ~aiger ~deadline_in =
  let t0 = Unix.gettimeofday () in
  let g = Aig.Aiger_io.of_string aiger in
  let cancel =
    Option.map (fun d -> Par.Cancel.create ~deadline_in:d ()) deadline_in
  in
  let c = check ?cancel ~pool:(Lazy.force pool) g in
  let conflicts =
    match c.Simsweep.Engine.sat with
    | Some s -> s.Simsweep.Engine.sat_stats.Sat.Sweep.conflicts
    | None -> 0
  in
  Pr.Shard_verdict
    {
      shard;
      verdict = c.Simsweep.Engine.final;
      wall_s = Unix.gettimeofday () -. t0;
      conflicts;
    }

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
  Pr.send_reply oc Pr.Shard_ready;
  let rec loop () =
    match Pr.recv_task ic with
    | Error Pr.Eof -> () (* coordinator gone *)
    | Error (Pr.Bad e) ->
        (* Framing is length-prefixed, so a bad frame is survivable. *)
        Printf.eprintf "shard worker: bad task: %s\n%!" e;
        loop ()
    | Ok task ->
        Pr.send_reply oc (handle ~pool task);
        loop ()
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
