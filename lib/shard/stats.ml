type entry = {
  e_shard : int;
  e_pos : int;
  e_ands : int;
  e_worker : int;
  e_wall_s : float;
  e_via : string;
  e_verdict : string;
}

type t = {
  workers : int;
  mutable groups : int;
  mutable split_groups : int;
  mutable shards : int;
  mutable wall_s : float;
  tasks : int array;
  mutable conflicts : int;
  mutable workers_spawned : int;
  mutable workers_crashed : int;
  mutable respawns : int;
  (* data plane *)
  mutable bytes_tx : int;
  mutable bytes_rx : int;
  mutable frames_tx : int;
  mutable frames_rx : int;
  mutable entries : entry list;
  mutable worker_pids : int list;
}

let create ~workers =
  {
    workers;
    groups = 0;
    split_groups = 0;
    shards = 0;
    wall_s = 0.;
    tasks = Array.make workers 0;
    conflicts = 0;
    workers_spawned = 0;
    workers_crashed = 0;
    respawns = 0;
    bytes_tx = 0;
    bytes_rx = 0;
    frames_tx = 0;
    frames_rx = 0;
    entries = [];
    worker_pids = [];
  }

let steals t =
  let total = Array.fold_left ( + ) 0 t.tasks in
  let fair = (total + t.workers - 1) / max 1 t.workers in
  Array.map (fun n -> max 0 (n - fair)) t.tasks

let max_json_entries = 256

let to_json t =
  let module J = Simsweep.Telemetry in
  let ints a = J.List (Array.to_list a |> List.map (fun n -> J.Int n)) in
  let steals = steals t in
  let entries =
    List.filteri (fun i _ -> i < max_json_entries) t.entries
    |> List.rev_map (fun e ->
           J.Obj
             [
               ("shard", J.Int e.e_shard);
               ("pos", J.Int e.e_pos);
               ("ands", J.Int e.e_ands);
               ("worker", J.Int e.e_worker);
               ("wall_s", J.Float e.e_wall_s);
               ("via", J.String e.e_via);
               ("verdict", J.String e.e_verdict);
             ])
  in
  J.Obj
    [
      ("workers", J.Int t.workers);
      ("groups", J.Int t.groups);
      ("split_groups", J.Int t.split_groups);
      ("shards", J.Int t.shards);
      ("wall_s", J.Float t.wall_s);
      ("tasks_per_worker", ints t.tasks);
      ("steals_per_worker", ints steals);
      ("steals", J.Int (Array.fold_left ( + ) 0 steals));
      ("conflicts", J.Int t.conflicts);
      ("workers_spawned", J.Int t.workers_spawned);
      ("workers_crashed", J.Int t.workers_crashed);
      ("respawns", J.Int t.respawns);
      ("bytes_tx", J.Int t.bytes_tx);
      ("bytes_rx", J.Int t.bytes_rx);
      ("frames_tx", J.Int t.frames_tx);
      ("frames_rx", J.Int t.frames_rx);
      ("shard_entries", J.List entries);
    ]
