(** Bit-parallel brute-force oracle — the differential harness's ground
    truth on miters with at most 16 primary inputs.

    One pass of 64-way packed simulation over all [2^n] assignments: a few
    hundred times faster than per-assignment {!Sim.Cex.eval_lit} loops, so
    the oracle can afford an exhaustive verdict on every fuzz case and the
    shrinker can afford one per candidate reduction. *)

val supported : Aig.Network.t -> bool

(** Exhaustive verdict on a miter: every PO constant false, or a concrete
    counter-example.  The returned CEX is deterministic (lowest PO index,
    then lowest pattern index).  Raises [Invalid_argument] beyond
    16 inputs. *)
val check_miter :
  Aig.Network.t -> [ `Equivalent | `Inequivalent of Sim.Cex.t * int ]

(** Functional equivalence of two networks with matching interfaces. *)
val equivalent : Aig.Network.t -> Aig.Network.t -> bool
