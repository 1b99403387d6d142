(* Work-stealing fork–join pool.

   Jobs are published through an atomic generation counter: the caller
   writes the job record, bumps [gen], and every worker picks it up by
   observing the new generation — no mutex/condvar handoff on the dispatch
   path.  Idle workers spin briefly (much longer inside a
   [parallel_region]) before parking on a condvar, so back-to-back loops —
   the per-level barriers of the exhaustive simulator — cost a fetch-add
   and a short spin instead of a wake-up.

   The index range of a loop is statically partitioned into one contiguous
   block per worker; each worker claims fixed-size chunks off its own
   block's atomic cursor (a chunked deque it owns the head of) and, once
   its block is drained, steals chunks from the other blocks' cursors. *)

type job = {
  body : int -> unit;
  chunk : int;
  cursors : int Atomic.t array;  (* per-slot next index in its block *)
  block_stop : int array;  (* per-slot block end *)
  pending : int Atomic.t;  (* spawned workers that have not finished yet *)
  exn : exn option Atomic.t;
}

type stats = {
  mutable jobs : int;
  mutable seq_jobs : int;
  mutable items : int;
  mutable barrier_wait : float;
  chunks_per_worker : int array;
  steals : int array;
  mutable regions : int;
  mutable region_jobs : int;
}

type t = {
  spawned : int;
  mutex : Mutex.t;
  cond : Condition.t;
  sleepers : int Atomic.t;  (* workers parked on [cond] *)
  mutable current : job option;  (* published before [gen] is bumped *)
  gen : int Atomic.t;
  region_on : int Atomic.t;  (* > 0 while some caller holds a region *)
  stopping : bool Atomic.t;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
  mutable domains : unit Domain.t list;
  submit : Mutex.t;
      (* The pool has a single job slot, so concurrent submitters (shell
         sessions sharing one pool) are serialized: the mutex is held from
         job publication through barrier exit.  Per-job stats are mutated
         under it; only the sequential-fallback counters stay best-effort. *)
  oversubscribed : bool;  (* more domains than cores: see [create] *)
  spin_idle : int;  (* idle spin budget before parking (0 = park at once) *)
  spin_region : int;  (* spin budget inside a region and at the barrier *)
  stat : stats;
}

(* A domain inside a [parallel_for] body must not dispatch another parallel
   loop (the pool has a single job slot); nested calls run inline.  The
   flag is domain-local so the guard also covers worker domains, which the
   old shared [in_loop] ref raced on. *)
let in_body : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Caller-side [parallel_region] nesting.  Domain-local, not a pool field:
   two domains sharing one pool each track their own nesting, so one
   session's region never makes another session's region collapse to a
   plain call (or vice versa). *)
let in_region : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Spin budgets before parking, in [cpu_relax] iterations.  Inside a
   region the budget is high enough that the gaps between the per-level
   loops of one simulation round never reach the condvar.  Spinning is
   only productive when every domain has a core of its own: [cpu_relax]
   does not yield the OS timeslice, so on an oversubscribed host a
   spinning domain starves the one that actually holds work for whole
   scheduler quanta.  [create] zeroes both budgets in that case and the
   pool degrades to plain condvar handoff. *)
let spin_idle_max = 500
let spin_region_max = 100_000

(* Each worker owns one slot of the per-worker stat arrays (slot 0 is the
   calling domain), so plain increments are race-free. *)
let run_chunks t slot job =
  let claims = t.stat.chunks_per_worker in
  let steals = t.stat.steals in
  let num = t.spawned + 1 in
  let flag = Domain.DLS.get in_body in
  flag := true;
  (* Drain the chunks of block [b]; count a steal per chunk when the block
     is not our own. *)
  let drain b =
    let cursor = job.cursors.(b) and stop = job.block_stop.(b) in
    let rec loop () =
      if Atomic.get job.exn <> None then ()
      else begin
        let i = Atomic.fetch_and_add cursor job.chunk in
        if i < stop then begin
          claims.(slot) <- claims.(slot) + 1;
          if b <> slot then steals.(slot) <- steals.(slot) + 1;
          let hi = min stop (i + job.chunk) in
          (try
             for k = i to hi - 1 do
               job.body k
             done
           with e -> ignore (Atomic.compare_and_set job.exn None (Some e)));
          loop ()
        end
      end
    in
    loop ()
  in
  drain slot;
  for d = 1 to num - 1 do
    drain ((slot + d) mod num)
  done;
  flag := false

let wake_sleepers t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  end

let worker_loop t slot =
  let seen = ref 0 in
  let stop = ref false in
  while not !stop do
    (* Wait for the next generation: spin, then park. *)
    let rec await spins =
      if Atomic.get t.stopping then `Stop
      else if Atomic.get t.gen <> !seen then `Job
      else if
        spins
        < if Atomic.get t.region_on > 0 then t.spin_region else t.spin_idle
      then begin
        Domain.cpu_relax ();
        await (spins + 1)
      end
      else begin
        Mutex.lock t.mutex;
        (* [sleepers] is bumped before the predicate re-check so a
           publisher that observes the old count afterwards is guaranteed
           to see the new generation was not yet observed — no lost
           wake-up. *)
        Atomic.incr t.sleepers;
        while
          (not (Atomic.get t.stopping)) && Atomic.get t.gen = !seen
        do
          Condition.wait t.cond t.mutex
        done;
        Atomic.decr t.sleepers;
        Mutex.unlock t.mutex;
        await 0
      end
    in
    match await 0 with
    | `Stop -> stop := true
    | `Job -> (
        seen := Atomic.get t.gen;
        (* [current] cannot change until every worker has finished the
           published job, so it necessarily matches the generation read
           above. *)
        match t.current with
        | None -> ()
        | Some job ->
            run_chunks t slot job;
            if Atomic.fetch_and_add job.pending (-1) = 1 then begin
              Mutex.lock t.done_mutex;
              Condition.broadcast t.done_cond;
              Mutex.unlock t.done_mutex
            end)
  done

let env_domains () =
  match Sys.getenv_opt "SIMSWEEP_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)
  | None -> None

let create ?num_domains () =
  let n =
    match num_domains with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Pool.create: num_domains must be >= 1"
    | None -> (
        match env_domains () with
        | Some n -> n
        | None -> min 8 (Domain.recommended_domain_count ()))
  in
  let cores = Domain.recommended_domain_count () in
  let t =
    {
      spawned = n - 1;
      mutex = Mutex.create ();
      cond = Condition.create ();
      sleepers = Atomic.make 0;
      current = None;
      gen = Atomic.make 0;
      region_on = Atomic.make 0;
      stopping = Atomic.make false;
      done_mutex = Mutex.create ();
      done_cond = Condition.create ();
      domains = [];
      submit = Mutex.create ();
      oversubscribed = n > cores;
      spin_idle = (if n > cores then 0 else spin_idle_max);
      spin_region = (if n > cores then 0 else spin_region_max);
      stat =
        {
          jobs = 0;
          seq_jobs = 0;
          items = 0;
          barrier_wait = 0.;
          chunks_per_worker = Array.make n 0;
          steals = Array.make n 0;
          regions = 0;
          region_jobs = 0;
        };
    }
  in
  t.domains <-
    List.init t.spawned (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let num_workers t = t.spawned + 1

let stats t =
  {
    t.stat with
    chunks_per_worker = Array.copy t.stat.chunks_per_worker;
    steals = Array.copy t.stat.steals;
  }

let reset_stats t =
  t.stat.jobs <- 0;
  t.stat.seq_jobs <- 0;
  t.stat.items <- 0;
  t.stat.barrier_wait <- 0.;
  Array.fill t.stat.chunks_per_worker 0 (Array.length t.stat.chunks_per_worker) 0;
  Array.fill t.stat.steals 0 (Array.length t.stat.steals) 0;
  t.stat.regions <- 0;
  t.stat.region_jobs <- 0

let parallel_for t ?chunk ~start ~stop body =
  let n = stop - start in
  if n <= 0 then ()
  else if t.spawned = 0 || !(Domain.DLS.get in_body) || n <= 1 then begin
    t.stat.seq_jobs <- t.stat.seq_jobs + 1;
    t.stat.items <- t.stat.items + n;
    for i = start to stop - 1 do
      body i
    done
  end
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | _ -> max 1 (n / (8 * (t.spawned + 1)))
    in
    let num = t.spawned + 1 in
    (* Block reservation guarantees every worker finds work whenever it is
       scheduled.  On an oversubscribed host that is exactly wrong: domains
       time-share cores, so handing each a reserved block keeps several
       mutators active at once and every minor GC becomes a stop-the-world
       rendezvous across scheduler timeslices.  There the whole range goes
       into block 0 — whichever domain is actually running drains it, and
       late-woken workers find nothing (the seed pool's behaviour). *)
    let per = if t.oversubscribed then n else (n + num - 1) / num in
    let job =
      {
        body;
        chunk;
        cursors = Array.init num (fun w -> Atomic.make (start + (w * per)));
        block_stop = Array.init num (fun w -> min stop (start + ((w + 1) * per)));
        pending = Atomic.make t.spawned;
        exn = Atomic.make None;
      }
    in
    (* Single job slot: hold [submit] from publication to barrier exit so
       concurrent submitters queue instead of clobbering [current]/[gen]. *)
    Mutex.lock t.submit;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.submit)
      (fun () ->
        t.stat.jobs <- t.stat.jobs + 1;
        t.stat.items <- t.stat.items + n;
        if !(Domain.DLS.get in_region) then
          t.stat.region_jobs <- t.stat.region_jobs + 1;
        t.current <- Some job;
        Atomic.incr t.gen;
        wake_sleepers t;
        run_chunks t 0 job;
        let wait0 = Unix.gettimeofday () in
        let rec spin i =
          if Atomic.get job.pending = 0 then ()
          else if i < t.spin_region then begin
            Domain.cpu_relax ();
            spin (i + 1)
          end
          else begin
            Mutex.lock t.done_mutex;
            while Atomic.get job.pending > 0 do
              Condition.wait t.done_cond t.done_mutex
            done;
            Mutex.unlock t.done_mutex
          end
        in
        spin 0;
        (* Drop the job at barrier exit: retaining it would keep the
           closure — and any buffers it captures — alive until the next
           loop. *)
        t.current <- None;
        t.stat.barrier_wait <-
          t.stat.barrier_wait +. (Unix.gettimeofday () -. wait0));
    match Atomic.get job.exn with None -> () | Some e -> raise e
  end

let parallel_region t f =
  let nested = Domain.DLS.get in_region in
  if t.spawned = 0 || !(Domain.DLS.get in_body) || !nested then
    (* Sequential pool, worker body, or nested region: plain call. *)
    f ()
  else begin
    Mutex.lock t.submit;
    t.stat.regions <- t.stat.regions + 1;
    Mutex.unlock t.submit;
    nested := true;
    Atomic.incr t.region_on;
    Fun.protect
      ~finally:(fun () ->
        Atomic.decr t.region_on;
        nested := false)
      f
  end

let shutdown t =
  let already = Atomic.exchange t.stopping true in
  Mutex.lock t.mutex;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  if not already then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* The check-then-set on [default_pool] must be atomic: two domains racing
   through it would each create a pool and one would leak its worker
   domains forever.  The mutex also makes the [at_exit] registration
   happen exactly once, on the single creation path. *)
let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock default_mutex)
    (fun () ->
      match !default_pool with
      | Some p -> p
      | None ->
          let p = create () in
          default_pool := Some p;
          (* The default pool's domains are never joined by callers; tear
             them down at process exit so runs under test runners exit
             cleanly. *)
          at_exit (fun () -> shutdown p);
          p)
