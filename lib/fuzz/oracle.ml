type verdict =
  | V_equivalent
  | V_inequivalent of Sim.Cex.t * int
  | V_unknown of string

let verdict_token = function
  | V_equivalent -> "EQ"
  | V_inequivalent _ -> "INEQ"
  | V_unknown _ -> "?"

type engine = {
  name : string;
  run : pool:Par.Pool.t -> Aig.Network.t -> verdict;
}

let of_engine_outcome = function
  | Simsweep.Engine.Proved -> V_equivalent
  | Simsweep.Engine.Disproved (cex, po) -> V_inequivalent (cex, po)
  | Simsweep.Engine.Undecided -> V_unknown "undecided"

let of_sat_outcome = function
  | Sat.Sweep.Equivalent -> V_equivalent
  | Sat.Sweep.Inequivalent (cex, po) -> V_inequivalent (cex, po)
  | Sat.Sweep.Undecided -> V_unknown "undecided"

let default_engines ?(bdd_node_limit = 200_000) ?(sat_conflict_limit = 10_000) () =
  [
    {
      name = "brute";
      run =
        (fun ~pool:_ m ->
          if not (Brute.supported m) then V_unknown "too many PIs"
          else
            match Brute.check_miter m with
            | `Equivalent -> V_equivalent
            | `Inequivalent (cex, po) -> V_inequivalent (cex, po));
    };
    {
      name = "sim";
      run =
        (fun ~pool m ->
          let r = Simsweep.Engine.run ~config:Simsweep.Config.scaled ~pool m in
          of_engine_outcome r.Simsweep.Engine.outcome);
    };
    {
      name = "combined";
      run =
        (fun ~pool m ->
          let c =
            Simsweep.Engine.check_with_fallback ~config:Simsweep.Config.scaled
              ~transfer_classes:true ~pool m
          in
          of_engine_outcome c.Simsweep.Engine.final);
    };
    {
      name = "satsweep";
      run = (fun ~pool m -> of_sat_outcome (fst (Sat.Sweep.check ~pool m)));
    };
    {
      name = "satdirect";
      run =
        (fun ~pool:_ m ->
          of_sat_outcome (Sat.Sweep.check_direct ~conflict_limit:sat_conflict_limit m));
    };
    {
      (* Same check with preprocessing off: cross-checks that BVE /
         subsumption / XOR-Gauss / probing never flip a verdict, and that
         reconstructed counter-examples replay (stage 1 validates every
         CEX against the miter). *)
      name = "satdirect-nosimp";
      run =
        (fun ~pool:_ m ->
          of_sat_outcome
            (Sat.Sweep.check_direct ~simplify:false
               ~conflict_limit:sat_conflict_limit m));
    };
    {
      name = "bdd";
      run =
        (fun ~pool:_ m ->
          match Bdd.check ~node_limit:bdd_node_limit m with
          | `Equivalent -> V_equivalent
          | `Inequivalent (cex, po) -> V_inequivalent (cex, po)
          | `Node_limit -> V_unknown "node limit"
          | `Timeout -> V_unknown "timeout");
    };
    {
      name = "portfolio";
      run =
        (fun ~pool m ->
          let r = Simsweep.Portfolio.check ~pool m in
          of_engine_outcome r.Simsweep.Portfolio.outcome);
    };
    {
      (* The racing portfolio is its own oracle member: any scheduling bug
         that lets cancellation corrupt a verdict shows up as a
         disagreement with the sequential engines (degrades to the
         sequential portfolio on machines without spare cores). *)
      name = "race";
      run =
        (fun ~pool m ->
          let r = Simsweep.Portfolio.check ~mode:`Race ~pool m in
          of_engine_outcome r.Simsweep.Portfolio.outcome);
    };
  ]

type failure =
  | Disagreement of { equiv : string list; inequiv : string list }
  | Bad_cex of { engine : string; po : int }
  | Wrong_verdict of { engine : string; verdict : verdict }
  | Bad_certificate of string

let failure_token = function
  | Disagreement { equiv; inequiv } ->
      Printf.sprintf "disagreement[EQ:%s|INEQ:%s]" (String.concat "," equiv)
        (String.concat "," inequiv)
  | Bad_cex { engine; po } -> Printf.sprintf "bad-cex[%s@po%d]" engine po
  | Wrong_verdict { engine; verdict } ->
      Printf.sprintf "wrong-verdict[%s=%s]" engine (verdict_token verdict)
  | Bad_certificate msg -> Printf.sprintf "bad-certificate[%s]" msg

(* Same failure mode, for checking that a shrunk miter still reproduces
   the original disagreement.  CEX patterns, PO indices and bystander
   verdicts shift as the miter shrinks, so a disagreement only needs a
   shared witness on each side of the split. *)
let inter a b = List.exists (fun x -> List.mem x b) a

let similar a b =
  match (a, b) with
  | Disagreement a, Disagreement b -> inter a.equiv b.equiv && inter a.inequiv b.inequiv
  | Bad_cex a, Bad_cex b -> a.engine = b.engine
  | Wrong_verdict a, Wrong_verdict b -> a.engine = b.engine
  | Bad_certificate _, Bad_certificate _ -> true
  | _ -> false

type outcome = {
  verdicts : (string * verdict) list;  (** in engine order — deterministic *)
  failures : failure list;
}

let certificate_failure ~pool m =
  let run, cert = Simsweep.Certificate.generate ~config:Simsweep.Config.scaled ~pool m in
  match run.Simsweep.Engine.outcome with
  | Simsweep.Engine.Proved when not cert.Simsweep.Certificate.claims_proved ->
      Some (Bad_certificate "proved run yielded a non-proving certificate")
  | Simsweep.Engine.Proved -> (
      match Simsweep.Certificate.validate m cert with
      | Error e -> Some (Bad_certificate e)
      | Ok replayed ->
          if Aig.Miter.solved replayed then None
          else Some (Bad_certificate "replayed miter not fully solved"))
  | _ -> None

let run ?engines ?expected ?(certify = false) ~pool miter =
  let engines = match engines with Some e -> e | None -> default_engines () in
  let verdicts = List.map (fun e -> (e.name, e.run ~pool miter)) engines in
  let failures = ref [] in
  let add f = failures := f :: !failures in
  (* 1. Every claimed counter-example must replay on the miter. *)
  let valid_cex = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match v with
      | V_inequivalent (cex, po) ->
          if
            po >= 0
            && po < Aig.Network.num_pos miter
            && Array.length cex = Aig.Network.num_pis miter
            && Sim.Cex.check miter cex po
          then Hashtbl.replace valid_cex name ()
          else add (Bad_cex { engine = name; po })
      | _ -> ())
    verdicts;
  (* 2. Conclusive verdicts must agree with each other... *)
  let equiv =
    List.filter_map (fun (n, v) -> if v = V_equivalent then Some n else None) verdicts
  in
  let inequiv =
    List.filter_map
      (fun (n, v) ->
        match v with
        | V_inequivalent _ when Hashtbl.mem valid_cex n -> Some n
        | _ -> None)
      verdicts
  in
  if equiv <> [] && inequiv <> [] then add (Disagreement { equiv; inequiv });
  (* 3. ... and with the constructed expectation, when given. *)
  (match expected with
  | None -> ()
  | Some exp ->
      List.iter
        (fun (name, v) ->
          match (exp, v) with
          | `Equivalent, V_inequivalent _ when Hashtbl.mem valid_cex name ->
              add (Wrong_verdict { engine = name; verdict = v })
          | `Inequivalent, V_equivalent ->
              add (Wrong_verdict { engine = name; verdict = v })
          | _ -> ())
        verdicts);
  (* 4. A proof must survive independent certificate replay. *)
  if certify && List.mem "sim" equiv then
    Option.iter add (certificate_failure ~pool miter);
  { verdicts; failures = List.rev !failures }
