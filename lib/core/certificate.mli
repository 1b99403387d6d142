(** Checkable proof certificates for the CEC engine.

    The engine's answer is only as trustworthy as 8,000 lines of simulator;
    a certificate lets an {e independent} checker validate the result: it
    records every reduction step (PO proofs and node merges, via
    {!Engine.run}'s [trace]) and {!validate} replays them on the original
    miter, re-proving each individual claim with the SAT solver — a much
    smaller trusted core — and reducing the miter after each step with
    {!Engine.apply_step}, the function the engine itself reduces with.  Each step's claims are local and cheap compared
    to the original problem, which is the same reason the engine is fast:
    the certificate externalises that decomposition. *)

type t = {
  steps : Engine.trace_step list;
  claims_proved : bool;  (** the engine claims the miter fully proved *)
}

(** [generate ?config ?cancel ~pool miter] runs the engine while recording
    the trace.  The input network is not modified.  A cancelled run yields
    an [Undecided] result with [claims_proved = false]. *)
val generate :
  ?config:Config.t ->
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  Engine.run_result * t

(** [validate ?conflict_limit miter cert] replays the certificate on the
    original miter: every merge [n -> l] is re-proved equivalent by SAT on
    the current intermediate miter and every P-step output re-proved
    constant false, then the step is applied with {!Engine.apply_step}.  Returns the
    final replayed miter, which is fully solved when [claims_proved] held
    honestly.  On any failed claim, [Error] describes the offending step. *)
val validate :
  ?conflict_limit:int -> Aig.Network.t -> t -> (Aig.Network.t, string) result

(** What {!certify} found: the engine's proof replayed independently in
    that many steps; no proof to certify (the engine alone did not prove
    the miter); or a claim that did not replay, or a replay that left the
    miter unsolved. *)
type check = Validated of int | Incomplete | Invalid of string

(** [certify ?cancel ~pool miter] is the one certify path of the command
    line, the shell and the fuzz oracle: {!generate} with
    {!Config.scaled}, then {!validate} when the certificate claims a
    proof.  Returns the engine's verdict with the check. *)
val certify :
  ?cancel:Par.Cancel.t ->
  pool:Par.Pool.t ->
  Aig.Network.t ->
  Engine.outcome * check
