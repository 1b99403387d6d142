(** Cooperative cancellation for the engine loops.

    An alias of {!Par.Cancel} — one token type shared by every engine so
    one deadline can stop a BDD build, a CDCL search, an
    exhaustive-simulation round and a sweeping round through the same
    flag.  See {!Par.Cancel} for the API contract. *)

include module type of Par.Cancel
