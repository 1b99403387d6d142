(** Binary implication graph over solver literals (lit = 2*var lor sign).

    Feeds two preprocessing passes: equivalent-literal substitution (SCCs
    of the graph are equality classes of literals) and failed-literal
    probing (roots of the implication dag are the highest-coverage probe
    candidates). *)

type t

val create : ?nvars:int -> unit -> t

(** Register the binary clause (a \/ b), adding edges ¬a → b and
    ¬b → a.  Grows the graph as needed. *)
val add_clause : t -> int -> int -> unit

(** [sccs t] = [(comp, ncomps)]: Tarjan strongly connected components.
    [comp.(l)] is the component id of literal [l]; equal ids mean the
    literals are equivalent in every model.  A variable whose two
    literals share a component witnesses unsatisfiability.  Component
    ids are in reverse topological order (Tarjan numbering). *)
val sccs : t -> int array * int

(** Literals with outgoing edges but no incoming ones — the preferred
    failed-literal probes, in increasing literal order. *)
val probe_candidates : t -> int list
