(** Parallel exhaustive simulator (paper Algorithm 1).

    A batch of jobs is checked at once; each job is a simulation window
    (identified by its input node set) carrying candidate pairs whose truth
    tables over those inputs are compared.  The simulation table gives every
    window row an entry of [E = 2^e] 64-bit words, with [E] chosen on the
    fly as the largest power of two such that the whole table fits in the
    [memory_words] budget; longer truth tables are simulated over multiple
    rounds, re-deriving projection-table segments per round.

    Three dimensions of parallelism (paper Fig. 3) map onto the domain
    pool: multiple windows are simulated concurrently; inside a large
    window the nodes of one topological level are split across workers; and
    each worker sweeps the words of its rows. *)

type pair = {
  a : int;  (** candidate node id *)
  b : int;  (** other node id, or [-1] for the constant-false target *)
  compl_ : bool;  (** compare against the complement *)
  tag : int;  (** caller's slot in the verdict array *)
}

type job = { inputs : int array; pairs : pair list }

type mismatch = {
  pattern : int;  (** first differing pattern index *)
  inputs : int array;  (** the window inputs the pattern refers to (after
                           any window merging) *)
}

type verdict =
  | Proved  (** truth tables identical over all inputs *)
  | Mismatch of mismatch
  | Invalid  (** the inputs do not bound the cone of some pair node *)

type stats = {
  mutable windows : int;
  mutable nodes_simulated : int;  (** window nodes, summed over windows *)
  mutable words_computed : int;
      (** truth-table words actually evaluated — per simulation round only
          the words of that round's (possibly partial) entry segment count *)
  mutable rounds : int;
  mutable small_windows : int;
      (** windows answered by the small-window evaluator *)
  mutable arena_hwm_words : int;
      (** simulation-table arena high-water mark, in 64-bit words *)
  mutable arena_grows : int;
      (** arena reallocations forced by oversized single windows *)
}

val new_stats : unit -> stats

(** Windows of at most this many inputs (truth tables of at most 16
    words) skip the simulation table: the small-window evaluator computes
    them by one memoised traversal from the roots, on per-domain scratch
    space that it reuses from window to window. *)
val small_inputs : int

(** [run g ~pool ~memory_words ~jobs ~num_tags] returns a verdict per tag.
    Tags absent from all jobs stay [Invalid].  Jobs of at most
    {!small_inputs} inputs are answered by the small-window evaluator.

    The simulation table is carved out of an {!Arena} slab sized by
    [memory_words] — allocated once per call and recycled across chunks
    and rounds.  Pass [?arena] to reuse one slab across calls (the engine
    shares one arena over all batches of a run); the arena is reset per
    chunk, so it must not be used concurrently.

    [cancel] is polled at window round boundaries and between chunks; a
    cancelled run leaves undecided tags at [Invalid] (inconclusive), never
    a false [Proved]. *)
val run :
  Aig.Network.t ->
  pool:Par.Pool.t ->
  memory_words:int ->
  ?arena:Arena.t ->
  ?stats:stats ->
  ?cancel:Par.Cancel.t ->
  jobs:job list ->
  num_tags:int ->
  unit ->
  verdict array

(** [prove_on_windows stats ?cancel g ~windows ~a ~b ~compl_] checks the
    pair [a ≡ b] ([b = -1]: constant false; complemented when [compl_])
    on every window of [windows] with the small-window evaluator, in the
    calling domain, and counts each into [stats] as {!run} would count it.
    True when some window proves the pair, as {!run} would answer
    [Proved] for it.  [stats] must be private to the calling domain.  A
    set [cancel] skips the remaining windows.  Raises [Invalid_argument]
    on a window of more than {!small_inputs} inputs. *)
val prove_on_windows :
  stats ->
  ?cancel:Par.Cancel.t ->
  Aig.Network.t ->
  windows:int array list ->
  a:int ->
  b:int ->
  compl_:bool ->
  bool

(** [add_stats ~into s] adds the counters of [s] to [into] (the arena
    high-water mark is a maximum). *)
val add_stats : into:stats -> stats -> unit
