(** The differential oracle: run every engine on a miter and flag any
    inconsistency.

    Cross-checked engines: the brute-force ground truth (≤ 16 PIs); the
    {!Shell.Engines} entries sim, combined, sat (as [satsweep]) and
    portfolio, exactly as the front-ends run them; and, under fixed
    fuzz-sized budgets, the direct per-PO SAT check with and without
    preprocessing (10,000 conflicts per output) and the BDD engine
    (200,000 nodes).  Every engine answers with a
    {!Simsweep.Engine.outcome}; [Undecided] (a spent budget, too many PIs
    for brute force, an engine error) is never a failure.  A failure is
    one of:

    - two engines returning conclusive opposite verdicts;
    - a counter-example that does not replay on the miter;
    - a conclusive verdict contradicting the generator's constructed
      expectation;
    - a proof whose {!Simsweep.Certificate.certify} check is [Invalid]:
      a claim that does not validate or a replay that does not reach a
      solved miter. *)

(** ["EQ"], ["INEQ"] or ["?"] — the deterministic log token. *)
val verdict_token : Simsweep.Engine.outcome -> string

(** A named engine adapter.  The self-test injects a deliberately lying
    adapter through this interface to prove the oracle catches silent
    miscompares. *)
type engine = {
  name : string;
  run : pool:Par.Pool.t -> Aig.Network.t -> Simsweep.Engine.outcome;
}

(** The oracle's engines, in log order.  The fuzz-sized budgets are
    fixed: 200,000 BDD nodes and 10,000 SAT conflicts per output. *)
val default_engines : engine list

type failure =
  | Disagreement of { equiv : string list; inequiv : string list }
  | Bad_cex of { engine : string; po : int }
  | Wrong_verdict of { engine : string; verdict : Simsweep.Engine.outcome }
  | Bad_certificate of string

(** Deterministic one-token rendering, e.g.
    [disagreement[EQ:liar|INEQ:brute,satsweep]]. *)
val failure_token : failure -> string

(** Same failure mode modulo the concrete CEX/PO (a disagreement needs a
    shared witness engine on each side) — the shrinker's notion of "the
    failure persists". *)
val similar : failure -> failure -> bool

type outcome = {
  verdicts : (string * Simsweep.Engine.outcome) list;  (** in engine order — deterministic *)
  failures : failure list;
}

(** [run ?engines ?expected ?certify ~pool miter].  [certify] (default
    false) additionally replays a {!Simsweep.Certificate} when the sim
    engine proves the miter. *)
val run :
  ?engines:engine list ->
  ?expected:[ `Equivalent | `Inequivalent ] ->
  ?certify:bool ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  outcome
