module Pr = Serve.Protocol

let mode_env = "SIMSWEEP_SHARD_WORKER_MODE"
let domains_env = "SIMSWEEP_SHARD_DOMAINS"

(* Per-reply export budget for learnt clauses. *)
let max_learnt_per_reply = 32
let max_learnt_len = 8

(* Cube formula cached between consecutive cubes of one shard: the solver
   keeps its own learnt clauses warm across cubes, on top of the
   coordinator's cross-worker pool.  Keyed by (run, shard) — a warm
   worker serves many coordinator runs, and shard ids restart at 0 for
   each, so the shard id alone would alias stale state. *)
type cube_state = {
  cs_run : int;
  cs_shard : int;
  cs_net : Aig.Network.t;
  cs_solver : Sat.Solver.t;
  cs_pos : int list;  (* unsolved PO indices of the cube formula *)
  cs_ok : bool;  (* false: formula already unsatisfiable at load *)
  cs_sent : (int list, unit) Hashtbl.t;  (* clauses already exported *)
}

type state = {
  pool : Par.Pool.t Lazy.t;
  mutable cube : cube_state option;
  (* Clauses from a one-way [Shard_clauses] frame that arrived before the
     cube state they target existed: (run, shard, clauses). *)
  mutable pending_clauses : (int * int * int list list) option;
}

let cancel_of deadline_in =
  Option.map (fun d -> Par.Cancel.create ~deadline_in:d ()) deadline_in

(* "Some unsolved PO fires": the clause that makes the formula satisfiable
   iff the (sub-)miter is inequivalent. *)
let po_disjunction solver g pos =
  Sat.Solver.add_clause solver
    (List.map (fun po -> Sat.Cnf.lit (Aig.Network.po g po)) pos)

(* A satisfying model in hand: pull the PI assignment and find a PO it
   fires.  The model satisfies every Tseitin clause, so replaying the PIs
   through the network reproduces the node values and the find succeeds. *)
let model_verdict solver g pos =
  let cex = Sat.Cnf.model_cex solver g in
  match List.find_opt (fun po -> Sim.Cex.check g cex po) pos with
  | Some po -> Some (cex, po)
  | None -> None

let export_learnt cs =
  let fresh =
    Sat.Solver.learnt_clauses ~max_len:max_learnt_len cs.cs_solver
    |> List.filter (fun c -> not (Hashtbl.mem cs.cs_sent c))
  in
  let kept = List.filteri (fun i _ -> i < max_learnt_per_reply) fresh in
  List.iter (fun c -> Hashtbl.replace cs.cs_sent c ()) kept;
  kept

(* --- Shard_check ------------------------------------------------------ *)

let run_check st ~shard ~aiger ~stall_conflicts ~split_vars ~direct_sat
    ~deadline_in =
  let t0 = Unix.gettimeofday () in
  let g = Aig.Aiger_io.of_string aiger in
  let cancel = cancel_of deadline_in in
  let verdict v conflicts =
    Pr.Shard_verdict
      { shard; verdict = v; wall_s = Unix.gettimeofday () -. t0; conflicts }
  in
  (* Phase 1: the sweeping engine with a bounded SAT tail.  [direct_sat]
     (a test hook) skips straight to the probe on the raw network. *)
  let reduced, engine_outcome, engine_conflicts =
    if direct_sat then (g, Simsweep.Engine.Undecided, 0)
    else
      let sat_config =
        { Sat.Sweep.default_config with final_conflict_limit = stall_conflicts }
      in
      let c =
        Simsweep.Engine.check_with_fallback ~config:Simsweep.Config.scaled
          ~sat_config ?cancel ~pool:(Lazy.force st.pool) g
      in
      let conflicts =
        match c.Simsweep.Engine.sat_stats with
        | Some s -> s.Sat.Sweep.conflicts
        | None -> 0
      in
      (c.Simsweep.Engine.engine.Simsweep.Engine.reduced, c.Simsweep.Engine.final, conflicts)
  in
  match engine_outcome with
  | Simsweep.Engine.Proved -> verdict Pr.Sv_proved engine_conflicts
  | Simsweep.Engine.Disproved (cex, po) ->
      verdict (Pr.Sv_disproved { cex = Pr.cex_to_bits cex; po }) engine_conflicts
  | Simsweep.Engine.Undecided when Par.Cancel.poll_opt cancel ->
      verdict Pr.Sv_undecided engine_conflicts
  | Simsweep.Engine.Undecided -> (
      (* Phase 2: stall probe on the reduced miter.  A fresh, unsimplified
         solver — its variable numbering is exactly [Cnf.load]'s node
         numbering, so activity variables reported here mean the same
         thing to every cube worker decoding the same AIGER. *)
      match Aig.Miter.unsolved_outputs reduced with
      | [] -> verdict Pr.Sv_proved engine_conflicts
      | unsolved ->
          let solver = Sat.Solver.create () in
          if
            (not (Sat.Cnf.load solver reduced))
            || not (po_disjunction solver reduced unsolved)
          then verdict Pr.Sv_proved engine_conflicts
          else
            let conflicts () = engine_conflicts + Sat.Solver.num_conflicts solver in
            (match
               Sat.Solver.solve ~conflict_limit:stall_conflicts ?cancel solver
             with
            | Sat.Solver.Unsat -> verdict Pr.Sv_proved (conflicts ())
            | Sat.Solver.Sat -> (
                match model_verdict solver reduced unsolved with
                | Some (cex, po) ->
                    verdict
                      (Pr.Sv_disproved { cex = Pr.cex_to_bits cex; po })
                      (conflicts ())
                | None -> verdict Pr.Sv_undecided (conflicts ()))
            | Sat.Solver.Unknown when Par.Cancel.poll_opt cancel ->
                verdict Pr.Sv_undecided (conflicts ())
            | Sat.Solver.Unknown -> (
                match Sat.Solver.top_activity_vars ~limit:split_vars solver with
                | [] -> verdict Pr.Sv_undecided (conflicts ())
                | vars ->
                    Pr.Shard_stalled
                      {
                        shard;
                        reduced = Aig.Aiger_io.to_binary_string reduced;
                        vars;
                        wall_s = Unix.gettimeofday () -. t0;
                      })))

(* --- Shard_cube ------------------------------------------------------- *)

let load_cube_formula ~run ~shard ~aiger ~freeze =
  let net = Aig.Aiger_io.of_string aiger in
  let solver = Sat.Solver.create () in
  let pos = Aig.Miter.unsolved_outputs net in
  let ok =
    pos <> [] && Sat.Cnf.load solver net && po_disjunction solver net pos
  in
  if ok then begin
    (* Preprocess once per shard; every assumption variable (current and
       future cubes share one [freeze] list) and the PO variables must
       survive elimination. *)
    let po_vars =
      List.map
        (fun po -> Sat.Solver.var_of_lit (Sat.Cnf.lit (Aig.Network.po net po)))
        pos
    in
    Sat.Solver.simplify ~frozen:(freeze @ po_vars) solver
  end;
  {
    cs_run = run;
    cs_shard = shard;
    cs_net = net;
    cs_solver = solver;
    cs_pos = pos;
    cs_ok = ok;
    cs_sent = Hashtbl.create 64;
  }

let run_cube st ~run ~shard ~cube ~aiger ~assume ~freeze ~conflict_limit
    ~deadline_in =
  let t0 = Unix.gettimeofday () in
  let reply result learnt conflicts =
    Pr.Shard_cube_reply
      {
        shard;
        cube;
        result;
        learnt;
        conflicts;
        wall_s = Unix.gettimeofday () -. t0;
      }
  in
  let cs =
    match st.cube with
    | Some cs when cs.cs_run = run && cs.cs_shard = shard -> Some cs
    | _ -> (
        match aiger with
        | Some aiger ->
            let cs = load_cube_formula ~run ~shard ~aiger ~freeze in
            st.cube <- Some cs;
            Some cs
        | None -> None)
  in
  (* Apply any clause batch that arrived (one-way) ahead of this cube. *)
  (match (cs, st.pending_clauses) with
  | Some cs, Some (r, s, clauses) when r = run && s = shard ->
      st.pending_clauses <- None;
      List.iter
        (fun c -> ignore (Sat.Solver.import_clause cs.cs_solver c))
        clauses
  | _ -> ());
  match cs with
  | None ->
      (* The coordinator thought we held the formula but we don't (e.g. a
         respawned worker): answer Unknown, the cube will be re-split or
         re-sent rather than lost. *)
      reply Pr.Cube_unknown [] 0
  | Some cs when not cs.cs_ok ->
      (* Formula unsatisfiable before any assumption: every cube is unsat. *)
      reply Pr.Cube_unsat [] 0
  | Some cs -> (
      let cancel = cancel_of deadline_in in
      let c0 = Sat.Solver.num_conflicts cs.cs_solver in
      let spent () = Sat.Solver.num_conflicts cs.cs_solver - c0 in
      match
        Sat.Solver.solve ~assumptions:assume ~conflict_limit ?cancel
          cs.cs_solver
      with
      | Sat.Solver.Unsat -> reply Pr.Cube_unsat (export_learnt cs) (spent ())
      | Sat.Solver.Sat -> (
          match model_verdict cs.cs_solver cs.cs_net cs.cs_pos with
          | Some (cex, po) ->
              reply
                (Pr.Cube_sat { cex = Pr.cex_to_bits cex; po })
                [] (spent ())
          | None -> reply Pr.Cube_unknown (export_learnt cs) (spent ()))
      | Sat.Solver.Unknown ->
          reply Pr.Cube_unknown (export_learnt cs) (spent ()))

(* --- protocol loop ---------------------------------------------------- *)

type action = Quit | No_reply | Reply of Pr.shard_reply

(* AIGER bytes that do not parse are a framed [Shard_failed], never a
   crash: the worker stays up and the coordinator settles that shard
   undecided. *)
let failed ~shard ~cube msg = Reply (Pr.Shard_failed { shard; cube; msg })

let handle st = function
  | Pr.Shard_quit -> Quit
  | Pr.Shard_ping -> Reply Pr.Shard_pong
  | Pr.Shard_clauses { run; shard; clauses } ->
      (match st.cube with
      | Some cs when cs.cs_run = run && cs.cs_shard = shard ->
          List.iter
            (fun c -> ignore (Sat.Solver.import_clause cs.cs_solver c))
            clauses
      | _ -> st.pending_clauses <- Some (run, shard, clauses));
      No_reply
  | Pr.Shard_check
      { run = _; shard; aiger; stall_conflicts; split_vars; direct_sat; deadline_in }
    -> (
      try
        Reply
          (run_check st ~shard ~aiger ~stall_conflicts ~split_vars ~direct_sat
             ~deadline_in)
      with Aig.Aiger_io.Parse_error msg ->
        failed ~shard ~cube:None ("bad aiger: " ^ msg))
  | Pr.Shard_cube
      { run; shard; cube; aiger; assume; freeze; conflict_limit; deadline_in }
    -> (
      try
        Reply
          (run_cube st ~run ~shard ~cube ~aiger ~assume ~freeze ~conflict_limit
             ~deadline_in)
      with Aig.Aiger_io.Parse_error msg ->
        failed ~shard ~cube:(Some cube) ("bad aiger: " ^ msg))

let serve ?(num_domains = 1) ic oc =
  let st =
    {
      pool = lazy (Par.Pool.create ~num_domains ());
      cube = None;
      pending_clauses = None;
    }
  in
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
        | Ok task -> (
            match handle st task with
            | Quit -> ()
            | No_reply -> loop ()
            | Reply reply ->
                write_reply reply;
                loop ()))
  in
  loop ();
  if Lazy.is_val st.pool then Par.Pool.shutdown (Lazy.force st.pool)

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

let maybe_become_worker () =
  match Sys.getenv_opt mode_env with
  | Some "1" -> worker_main ()
  | _ -> ()
