type phase = Po_check | Global_check | Local_check

type t = {
  mutable time_p : float;
  mutable time_g : float;
  mutable time_l : float;
  mutable pos_proved : int;
  mutable pairs_proved_global : int;
  mutable pairs_proved_local : int;
  mutable cex_found : int;
  mutable local_phases : int;
  mutable local_pairs_tried : int;
  mutable local_cuts_checked : int;
  mutable g_iterations : int;
  mutable g_candidates : int;
  mutable g_refinements : int;
  mutable cancelled : bool;
  exhaustive : Exhaustive.stats;
  psim : Sim.Psim.stats;
}

let create () =
  {
    time_p = 0.;
    time_g = 0.;
    time_l = 0.;
    pos_proved = 0;
    pairs_proved_global = 0;
    pairs_proved_local = 0;
    cex_found = 0;
    local_phases = 0;
    local_pairs_tried = 0;
    local_cuts_checked = 0;
    g_iterations = 0;
    g_candidates = 0;
    g_refinements = 0;
    cancelled = false;
    exhaustive = Exhaustive.new_stats ();
    psim = Sim.Psim.new_stats ();
  }

let timed t phase f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      match phase with
      | Po_check -> t.time_p <- t.time_p +. dt
      | Global_check -> t.time_g <- t.time_g +. dt
      | Local_check -> t.time_l <- t.time_l +. dt)
    f

let total_time t = t.time_p +. t.time_g +. t.time_l

let breakdown t =
  let total = total_time t in
  if total <= 0. then (0., 0., 0.)
  else (t.time_p /. total, t.time_g /. total, t.time_l /. total)

let pp fmt t =
  Format.fprintf fmt
    "P=%.3fs G=%.3fs L=%.3fs | POs=%d global=%d local=%d cex=%d phases=%d \
     g-iters=%d cand=%d%s"
    t.time_p t.time_g t.time_l t.pos_proved t.pairs_proved_global
    t.pairs_proved_local t.cex_found t.local_phases t.g_iterations
    t.g_candidates
    (if t.cancelled then " CANCELLED" else "")
