(* Persistent fork-server worker pool.

   PR 9 re-exec'd a cold worker set for every [Check.check]; under the
   serve daemon that meant every shard request paid full exec +
   allocator warm-up.  The pool keeps idle workers alive between runs:
   [acquire] revalidates each candidate with a ping frame (a worker that
   died, wedged, or desynced is killed and replaced by a cold spawn),
   [release] returns healthy idle workers, [reap_idle] retires workers
   that sat unused past the idle budget.  Only *idle* workers live here
   — a leased worker that crashes mid-run is the coordinator's problem
   and simply never comes back. *)

module Pr = Protocol

type worker = {
  pw_pid : int;
  pw_fd : Unix.file_descr;
  pw_ic : in_channel;
  pw_oc : out_channel;
  pw_exe : string;
  pw_domains : int;
  mutable pw_idle_since : float;
}

type t = {
  lock : Mutex.t;
  mutable idle : worker list;  (* most recently released first *)
  mutable closed : bool;
}

let create () = { lock = Mutex.create (); idle = []; closed = false }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let pid w = w.pw_pid
let fd w = w.pw_fd
let ic w = w.pw_ic
let oc w = w.pw_oc

let env ~domains =
  let keep s =
    not
      (String.starts_with ~prefix:(Worker.mode_env ^ "=") s
      || String.starts_with ~prefix:(Worker.domains_env ^ "=") s)
  in
  let base = Array.to_list (Unix.environment ()) |> List.filter keep in
  Array.of_list
    (base
    @ [
        Worker.mode_env ^ "=1";
        Printf.sprintf "%s=%d" Worker.domains_env (max 1 domains);
      ])

let spawn ~exe ~domains =
  let parent, child = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec parent;
  let pw_pid =
    Unix.create_process_env exe [| exe |] (env ~domains) child child Unix.stderr
  in
  Unix.close child;
  {
    pw_pid;
    pw_fd = parent;
    pw_ic = Unix.in_channel_of_descr parent;
    pw_oc = Unix.out_channel_of_descr parent;
    pw_exe = exe;
    pw_domains = domains;
    pw_idle_since = Unix.gettimeofday ();
  }

let kill w =
  (try Unix.kill w.pw_pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try close_in_noerr w.pw_ic with _ -> ());
  (try ignore (Unix.waitpid [] w.pw_pid) with _ -> ())

(* A candidate from the idle list may have died or wedged since release.
   Probe it: one ping frame, then read (with a receive timeout on the
   socket) until the pong comes back.  Stray frames from a previous life
   — a late reply racing a crash — are drained and discarded, but
   only boundedly many, so a worker spewing garbage is a discard too. *)
let ping_timeout_s = 2.0
let max_stray_frames = 64

let validate w =
  match
    Pr.write_frame w.pw_oc (fst (Pr.shard_task_to_frame Pr.Shard_ping))
  with
  | exception _ -> false
  | () -> (
      Unix.setsockopt_float w.pw_fd Unix.SO_RCVTIMEO ping_timeout_s;
      let rec await n =
        if n <= 0 then false
        else
          match Pr.read_frame w.pw_ic with
          | Error _ -> false
          | exception _ -> false
          | Ok inc -> (
              match Pr.shard_reply_of_frame inc with
              | Ok Pr.Shard_pong -> true
              | Ok _ -> await (n - 1)
              | Error _ -> false)
      in
      let ok = await max_stray_frames in
      (try Unix.setsockopt_float w.pw_fd Unix.SO_RCVTIMEO 0. with _ -> ());
      ok)

let default_max_idle_s = 300.

let reap_idle ?(max_idle_s = default_max_idle_s) t =
  let now = Unix.gettimeofday () in
  let expired =
    with_lock t (fun () ->
        let keep, drop =
          List.partition (fun w -> now -. w.pw_idle_since <= max_idle_s) t.idle
        in
        t.idle <- keep;
        drop)
  in
  List.iter kill expired;
  List.length expired

(* Take up to [n] warm workers matching [exe]/[domains]; spawn cold for
   the rest.  Returns each worker tagged warm/cold, plus how many idle
   candidates failed validation and were discarded.  Cold workers will
   send [Shard_ready] once up; warm ones are ready immediately. *)
let acquire t ~exe ~domains ~n =
  ignore (reap_idle t);
  let candidates =
    with_lock t (fun () ->
        let matching, rest =
          List.partition
            (fun w -> w.pw_exe = exe && w.pw_domains = domains)
            t.idle
        in
        let take = List.filteri (fun i _ -> i < n) matching in
        let back = List.filteri (fun i _ -> i >= n) matching in
        t.idle <- back @ rest;
        take)
  in
  let discarded = ref 0 in
  let warm =
    List.filter
      (fun w ->
        if validate w then true
        else begin
          kill w;
          incr discarded;
          false
        end)
      candidates
  in
  let workers =
    List.map (fun w -> (w, true)) warm
    @ List.init (n - List.length warm) (fun _ -> (spawn ~exe ~domains, false))
  in
  (workers, !discarded)

let release t w =
  let accepted =
    with_lock t (fun () ->
        if t.closed then false
        else begin
          w.pw_idle_since <- Unix.gettimeofday ();
          t.idle <- w :: t.idle;
          true
        end)
  in
  if not accepted then kill w else ignore (reap_idle t)

let shutdown t =
  let ws =
    with_lock t (fun () ->
        t.closed <- true;
        let ws = t.idle in
        t.idle <- [];
        ws)
  in
  List.iter kill ws

let idle_count t = with_lock t (fun () -> List.length t.idle)

(* Process-wide pool, shared by the serve daemon, the shell engine and
   repeated in-process checks.  Emptied at exit so no worker outlives
   the host. *)
let default_pool =
  lazy
    (let t = create () in
     at_exit (fun () -> shutdown t);
     t)

let default () = Lazy.force default_pool
