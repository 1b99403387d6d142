module Pr = Protocol
module E = Simsweep.Engine

type config = {
  workers : int;
  worker_domains : int;
  max_shard_ands : int;
  max_respawns : int;
  deadline_s : float option;
  worker_exe : string option;
  test_kill_worker : int option;
}

let default_config =
  {
    workers = 2;
    worker_domains = 1;
    max_shard_ands = 20_000;
    max_respawns = 4;
    deadline_s = None;
    worker_exe = None;
    test_kill_worker = None;
  }

(* Shard size target: cap at [max_shard_ands] but aim for at least one
   shard per worker, with a floor so tiny miters aren't shredded. *)
let plan_max_ands config g =
  let total = Aig.Network.num_ands g in
  let floor = min 256 config.max_shard_ands in
  max floor (min config.max_shard_ands (total / max 1 config.workers))

(* --- coordinator state ------------------------------------------------ *)

type srun = {
  sr : Plan.shard;
  mutable sr_aiger : string option;  (* cached wire form of [sr.sub] *)
  mutable sr_done : string option;  (* verdict tag once settled *)
  mutable sr_t0 : float;  (* first assignment time *)
}

type worker = {
  w_id : int;  (* stable slot, reused by respawns *)
  mutable w_conn : Proc.t;
  mutable w_alive : bool;
  mutable w_ready : bool;
  mutable w_task : srun option;
}

exception Done of E.outcome

let worker_exe config =
  match config.worker_exe with
  | Some exe -> exe
  | None -> (
      match Sys.getenv_opt "SIMSWEEP_SHARD_WORKER" with
      | Some exe when exe <> "" -> exe
      | _ -> Sys.executable_name)

let can_spawn config =
  worker_exe config <> Sys.executable_name || Worker.hosts_workers ()

let kill_and_reap w =
  if w.w_alive then begin
    w.w_alive <- false;
    w.w_ready <- false;
    Proc.kill w.w_conn
  end

(* --- the check -------------------------------------------------------- *)

let check ?(config = default_config) ?cancel g =
  let t_start = Unix.gettimeofday () in
  let stats = Stats.create ~workers:(max 1 config.workers) in
  let io = Simsweep.Telemetry.io_create () in
  let finish outcome =
    stats.wall_s <- Unix.gettimeofday () -. t_start;
    stats.bytes_tx <- io.Simsweep.Telemetry.io_bytes_tx;
    stats.bytes_rx <- io.Simsweep.Telemetry.io_bytes_rx;
    stats.frames_tx <- io.Simsweep.Telemetry.io_frames_tx;
    stats.frames_rx <- io.Simsweep.Telemetry.io_frames_rx;
    (outcome, stats)
  in
  let plan = Plan.build ~max_ands:(plan_max_ands config g) g in
  stats.groups <- plan.Plan.groups;
  stats.split_groups <- plan.Plan.split_groups;
  stats.shards <- List.length plan.Plan.shards;
  match plan.Plan.early with
  | Some verdict -> finish verdict
  | None when plan.Plan.shards = [] -> finish E.Proved
  | None ->
      (* The coordinator writes into worker sockets that can die under it. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let num_pis = Aig.Network.num_pis g in
      let deadline =
        Option.map (fun d -> t_start +. d) config.deadline_s
      in
      let remaining () =
        Option.map (fun d -> d -. Unix.gettimeofday ()) deadline
      in
      let expired () =
        match remaining () with Some r -> r <= 0. | None -> false
      in
      let sruns =
        List.map
          (fun sh -> { sr = sh; sr_aiger = None; sr_done = None; sr_t0 = 0. })
          plan.Plan.shards
        |> Array.of_list
      in
      (* Shards in plan order; a task taken back from a crashed worker
         goes to the front. *)
      let queue = ref (Array.to_list sruns) in
      let pop_task () =
        match !queue with
        | t :: rest ->
            queue := rest;
            Some t
        | [] -> None
      in
      let requeue_front t = queue := t :: !queue in
      let exe = worker_exe config in
      let domains = max 1 config.worker_domains in
      let spawn () =
        let pw = Proc.spawn ~exe ~domains in
        stats.workers_spawned <- stats.workers_spawned + 1;
        stats.worker_pids <- Proc.pid pw :: stats.worker_pids;
        pw
      in
      (* Workers announce [Shard_ready] once up. *)
      let workers =
        Array.init (max 1 config.workers) (fun w_id ->
            {
              w_id;
              w_conn = spawn ();
              w_alive = true;
              w_ready = false;
              w_task = None;
            })
      in
      let respawns_left = ref config.max_respawns in
      let test_kill_fired = ref false in
      let respawn w =
        if !respawns_left > 0 then begin
          decr respawns_left;
          stats.respawns <- stats.respawns + 1;
          w.w_conn <- spawn ();
          w.w_alive <- true;
          w.w_ready <- false;
          w.w_task <- None
        end
      in
      let settle sr ~worker ~via ~wall_s verdict_tag =
        sr.sr_done <- Some verdict_tag;
        stats.entries <-
          {
            Stats.e_shard = sr.sr.Plan.id;
            e_pos = List.length sr.sr.Plan.pos;
            e_ands = sr.sr.Plan.ands;
            e_worker = worker;
            e_wall_s = wall_s;
            e_via = via;
            e_verdict = verdict_tag;
          }
          :: stats.entries
      in
      (* A worker's disproof is validated before it is trusted or
         recorded: a CEX that does not replay settles the shard
         undecided. *)
      let disprove sr ~worker ~wall_s sub_cex po =
        if
          0 <= po
          && po < List.length sr.sr.Plan.pos
          && Array.length sub_cex = Aig.Network.num_pis sr.sr.Plan.sub
          && Sim.Cex.check sr.sr.Plan.sub sub_cex po
        then begin
          settle sr ~worker ~via:"sweep" ~wall_s "disproved";
          let cex =
            Simsweep.Partition.lift_cex ~pi_origin:sr.sr.Plan.pi_origin
              ~num_pis sub_cex
          in
          raise (Done (E.Disproved (cex, List.nth sr.sr.Plan.pos po)))
        end
        else begin
          Printf.eprintf
            "shard: worker returned an invalid counter-example for shard %d\n%!"
            sr.sr.Plan.id;
          settle sr ~worker ~via:"sweep" ~wall_s "undecided"
        end
      in
      let on_crash w =
        if w.w_alive then begin
          w.w_alive <- false;
          w.w_ready <- false;
          Proc.kill w.w_conn;
          stats.workers_crashed <- stats.workers_crashed + 1;
          (match w.w_task with
          | Some t ->
              w.w_task <- None;
              requeue_front t
          | None -> ());
          respawn w
        end
      in
      let send_task w sr =
        if sr.sr_t0 = 0. then sr.sr_t0 <- Unix.gettimeofday ();
        let aiger =
          match sr.sr_aiger with
          | Some a -> a
          | None ->
              let a = Aig.Aiger_io.to_binary_string sr.sr.Plan.sub in
              sr.sr_aiger <- Some a;
              a
        in
        let hdr, payload =
          Pr.shard_task_to_frame
            (Pr.Shard_check
               { shard = sr.sr.Plan.id; aiger; deadline_in = remaining () })
        in
        (* Fault injection: kill this slot at its first assignment,
           before the task hits the wire.  Once [Unix.kill] returns the
           SIGKILLed worker can never run user code again, so it cannot
           consume the task or slip a reply into the pipe — the
           coordinator is guaranteed to see the crash (EOF, or EPIPE on
           this very write), not a completed shard. *)
        (match config.test_kill_worker with
        | Some id when id = w.w_id && not !test_kill_fired ->
            test_kill_fired := true;
            (try Unix.kill (Proc.pid w.w_conn) Sys.sigkill
             with Unix.Unix_error _ -> ())
        | _ -> ());
        match Pr.write_frame ~io ~payload (Proc.oc w.w_conn) hdr with
        | () -> w.w_task <- Some sr
        | exception _ ->
            requeue_front sr;
            on_crash w
      in
      let handle_reply w t reply =
        match (t, reply) with
        | _, Pr.Shard_ready ->
            (* hello from a (re)spawn; not a task completion *)
            w.w_ready <- true;
            w.w_task <- t
        | Some sr, Pr.Shard_failed { msg; _ } ->
            (* The worker could not parse the payload.  Re-sending the
               same bytes would fail the same way, so the shard settles
               undecided; the worker itself is fine. *)
            Printf.eprintf "shard: worker %d rejected a payload (%s)\n%!"
              w.w_id msg;
            if sr.sr_done = None then
              settle sr ~worker:w.w_id ~via:"failed"
                ~wall_s:(Unix.gettimeofday () -. sr.sr_t0)
                "undecided"
        | Some sr, Pr.Shard_verdict { shard; verdict; wall_s; conflicts }
          when shard = sr.sr.Plan.id -> (
            stats.conflicts <- stats.conflicts + conflicts;
            stats.tasks.(w.w_id) <- stats.tasks.(w.w_id) + 1;
            let worker = w.w_id in
            match verdict with
            | Pr.Sv_proved -> settle sr ~worker ~via:"sweep" ~wall_s "proved"
            | Pr.Sv_undecided ->
                settle sr ~worker ~via:"sweep" ~wall_s "undecided"
            | Pr.Sv_disproved { cex; po } ->
                disprove sr ~worker ~wall_s (Pr.bits_to_cex cex) po)
        | _ ->
            Printf.eprintf "shard: protocol confusion from worker %d, killing it\n%!"
              w.w_id;
            (match t with Some t -> requeue_front t | None -> ());
            w.w_task <- None;
            w.w_alive <- false;
            w.w_ready <- false;
            Proc.kill w.w_conn;
            stats.workers_crashed <- stats.workers_crashed + 1;
            respawn w
      in
      let handle_readable w =
        match Pr.read_frame ~io (Proc.ic w.w_conn) with
        | Error _ -> on_crash w
        | Ok inc -> (
            match Pr.shard_reply_of_frame inc with
            | Error e ->
                Printf.eprintf "shard: bad reply from worker %d: %s\n%!" w.w_id e;
                on_crash w
            | Ok reply ->
                let t = w.w_task in
                w.w_task <- None;
                handle_reply w t reply)
      in
      let outcome_of_sruns () =
        if Array.for_all (fun sr -> sr.sr_done = Some "proved") sruns then
          E.Proved
        else E.Undecided
      in
      let finally () = Array.iter kill_and_reap workers in
      let result =
        Fun.protect ~finally (fun () ->
            try
              while true do
                if Par.Cancel.poll_opt cancel || expired () then
                  raise (Done E.Undecided);
                (* settled? *)
                if
                  !queue = []
                  && Array.for_all (fun w -> w.w_task = None) workers
                  && Array.for_all (fun sr -> sr.sr_done <> None) sruns
                then raise (Done (outcome_of_sruns ()));
                (* While an injected kill is pending, only its target slot
                   may take work: otherwise a fast sibling can finish every
                   shard before the (still exec-ing) target ever
                   announces ready, and the fault never fires.  Inert in
                   production — [test_kill_worker] is [None]. *)
                let kill_hold w =
                  match config.test_kill_worker with
                  | Some id when not !test_kill_fired ->
                      id <> w.w_id
                      && Array.exists
                           (fun v -> v.w_id = id && v.w_alive)
                           workers
                  | _ -> false
                in
                (* hand work to idle, ready workers *)
                Array.iter
                  (fun w ->
                    if
                      w.w_alive && w.w_ready && w.w_task = None
                      && not (kill_hold w)
                    then
                      match pop_task () with
                      | Some t -> send_task w t
                      | None -> ())
                  workers;
                let fds =
                  Array.to_list workers
                  |> List.filter_map (fun w ->
                         if w.w_alive then Some (Proc.fd w.w_conn) else None)
                in
                if fds = [] then
                  (* every worker dead and no respawn budget left *)
                  raise (Done (outcome_of_sruns ()));
                let readable =
                  match Unix.select fds [] [] 0.05 with
                  | r, _, _ -> r
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
                in
                List.iter
                  (fun fd ->
                    Array.iter
                      (fun w ->
                        if w.w_alive && Proc.fd w.w_conn = fd then
                          handle_readable w)
                      workers)
                  readable
              done;
              assert false
            with Done outcome -> outcome)
      in
      finish result
