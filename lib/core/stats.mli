(** Engine statistics: per-phase wall-clock timers (Fig. 6) and work
    counters. *)

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
      (** candidate pairs given common cuts, summed over L passes *)
  mutable local_cuts_checked : int;
      (** common cuts simulated in L passes; [pairs_proved_local] over this
          is the L phase's yield per cut *)
  mutable g_iterations : int;  (** G-phase refinement iterations run *)
  mutable g_candidates : int;  (** candidate pairs checked in the G phase *)
  mutable g_refinements : int;
      (** G-phase iterations that refined the classes with fresh CEXs *)
  mutable cancelled : bool;
      (** the run's cancellation token fired (it was set or its deadline
          expired) *)
  exhaustive : Exhaustive.stats;
  psim : Sim.Psim.stats;  (** partial (random) simulation effort *)
}

val create : unit -> t

(** [timed stats phase f] runs [f] and adds its duration to the phase
    timer. *)
val timed : t -> phase -> (unit -> 'a) -> 'a

val total_time : t -> float

(** Runtime fractions (p, g, l) of the total, for the Fig. 6 breakdown. *)
val breakdown : t -> float * float * float

val pp : Format.formatter -> t -> unit
