(** Engine parameters (paper §III-D and §IV).

    Paper defaults: [k_P = 32], [k_p = k_g = 16], [k_l = 8], [c = 8]; the
    window-merging support bound [k_s] equals the support threshold of the
    running phase.  [memory_words] is Algorithm 1's memory budget [M]
    deciding the simulation-table entry size [E]. *)

type t = {
  k_cap_p : int;  (** [k_P]: one-shot PO-checking support threshold *)
  k_p : int;  (** fallback PO-checking support threshold *)
  k_g : int;  (** global-function-checking support threshold *)
  k_l : int;
      (** maximum local cut size; at most {!Exhaustive.small_inputs}, since
          every L window is checked by the small-window evaluator *)
  c : int;  (** priority cuts per node *)
  memory_words : int;  (** simulation-table budget, in 64-bit words *)
  sim_words : int;  (** partial-simulation signature words *)
  seed : int64;
  max_local_phases : int;  (** repetitions of the L phase *)
  window_merging : bool;  (** §III-B3 heuristic (global checking only) *)
  similarity_selection : bool;  (** §III-C1 similarity-steered cuts *)
  passes : Cuts.Criteria.pass list;  (** cut-selection passes per L phase *)
  cut_buffer_capacity : int;
      (** common-cut buffer size of Algorithm 2.  The engine checks each
          pair's common cuts where they are made and keeps no buffer; only
          perfbench's replay of the L pass (perfbench/replay.ml) still
          reads this field.  It goes with ROADMAP item 3, the benchmark
          change that replaces that replay. *)
  distance_one_cex : bool;  (** §V extension: distance-1 CEX expansion *)
  adaptive_passes : bool;
      (** §V extension: disable a cut-selection pass for the remaining L
          phases once it proves nothing in a phase *)
  rewrite_between_phases : bool;
      (** §V extension: interleave sweeping with logic rewriting — a light
          optimisation round on the miter between L phases opens new cut
          structures (classes are rebuilt by fresh partial simulation) *)
}

let default =
  {
    k_cap_p = 32;
    k_p = 16;
    k_g = 16;
    k_l = 8;
    c = 8;
    memory_words = 1 lsl 22;
    sim_words = 4;
    seed = 0xdacL;
    max_local_phases = 50;
    window_merging = true;
    similarity_selection = true;
    passes = Cuts.Criteria.table1;
    cut_buffer_capacity = 4096;
    distance_one_cex = false;
    adaptive_passes = false;
    rewrite_between_phases = false;
  }

(** Scaled-down thresholds for CPU-sized experiments: same structure, the
    exhaustive-simulation budgets shrunk so a laptop plays the role of the
    paper's 48 GB GPU. *)
let scaled =
  {
    default with
    k_cap_p = 20;
    k_p = 14;
    k_g = 14;
    memory_words = 1 lsl 20;
  }
