(** Counter-examples: full primary-input assignments that distinguish a
    candidate pair, collected during global function checking and fed back
    into partial simulation to split equivalence classes. *)

type t = bool array  (** value of every PI, by input index *)

(** [of_window_pattern g ~inputs ~pattern ~num_pis] lifts a pattern index
    over window {e PI} inputs to a full PI assignment (unconstrained inputs
    are false).  Only valid when every window input is a PI. *)
val of_window_pattern : Aig.Network.t -> inputs:int array -> pattern:int -> t

(** [distance_one cex] generates the [n] assignments at Hamming distance 1
    from [cex] (paper §V: distance-1 simulation of CEXs), capped at
    [limit]. *)
val distance_one : ?limit:int -> t -> t list

(** [check g cex po] evaluates output [po] of [g] under the assignment —
    used by tests and by the engine's debug mode to validate that a
    disproving pattern really sets a miter output. *)
val check : Aig.Network.t -> t -> int -> bool

(** Evaluate an arbitrary literal under a full assignment. *)
val eval_lit : Aig.Network.t -> t -> Aig.Lit.t -> bool
