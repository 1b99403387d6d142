module E = Simsweep.Engine

let verdict_token = function
  | E.Proved -> "EQ"
  | E.Disproved _ -> "INEQ"
  | E.Undecided -> "?"

type engine = {
  name : string;
  run : pool:Par.Pool.t -> Aig.Network.t -> E.outcome;
}

(* An engine of the shared table, under its oracle name. *)
let of_table name engine =
  {
    name;
    run =
      (fun ~pool m ->
        match Shell.Engines.run ~pool engine m with
        | Ok r -> r.Shell.Engines.outcome
        | Error _ -> E.Undecided);
  }

(* Fuzz-sized budgets: the BDD engine's nodes and the direct SAT check's
   conflicts per output. *)
let bdd_nodes = 200_000
let sat_conflicts = 10_000

let default_engines =
  [
    {
      name = "brute";
      run =
        (fun ~pool:_ m ->
          if not (Brute.supported m) then E.Undecided
          else
            match Brute.check_miter m with
            | `Equivalent -> E.Proved
            | `Inequivalent (cex, po) -> E.Disproved (cex, po));
    };
    of_table "sim" Shell.Engines.Sim;
    of_table "combined" Shell.Engines.Combined;
    of_table "satsweep" Shell.Engines.Sat;
    {
      name = "satdirect";
      run =
        (fun ~pool:_ m ->
          E.of_sat_outcome (Sat.Sweep.check_direct ~conflict_limit:sat_conflicts m));
    };
    {
      (* Same check with preprocessing off: cross-checks that BVE /
         subsumption / XOR-Gauss / probing never flip a verdict, and that
         reconstructed counter-examples replay (stage 1 validates every
         CEX against the miter). *)
      name = "satdirect-nosimp";
      run =
        (fun ~pool:_ m ->
          E.of_sat_outcome
            (Sat.Sweep.check_direct ~simplify:false
               ~conflict_limit:sat_conflicts m));
    };
    {
      name = "bdd";
      run =
        (fun ~pool:_ m ->
          match Bdd.check ~node_limit:bdd_nodes m with
          | `Equivalent -> E.Proved
          | `Inequivalent (cex, po) -> E.Disproved (cex, po)
          | `Node_limit | `Timeout -> E.Undecided);
    };
    of_table "portfolio" Shell.Engines.Portfolio;
  ]

type failure =
  | Disagreement of { equiv : string list; inequiv : string list }
  | Bad_cex of { engine : string; po : int }
  | Wrong_verdict of { engine : string; verdict : E.outcome }
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
  verdicts : (string * E.outcome) list;  (** in engine order — deterministic *)
  failures : failure list;
}

let run ?engines ?expected ?(certify = false) ~pool miter =
  let engines = match engines with Some e -> e | None -> default_engines in
  let verdicts = List.map (fun e -> (e.name, e.run ~pool miter)) engines in
  let failures = ref [] in
  let add f = failures := f :: !failures in
  (* 1. Every claimed counter-example must replay on the miter. *)
  let valid_cex = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match v with
      | E.Disproved (cex, po) ->
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
    List.filter_map (fun (n, v) -> if v = E.Proved then Some n else None) verdicts
  in
  let inequiv =
    List.filter_map
      (fun (n, v) ->
        match v with
        | E.Disproved _ when Hashtbl.mem valid_cex n -> Some n
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
          | `Equivalent, E.Disproved _ when Hashtbl.mem valid_cex name ->
              add (Wrong_verdict { engine = name; verdict = v })
          | `Inequivalent, E.Proved ->
              add (Wrong_verdict { engine = name; verdict = v })
          | _ -> ())
        verdicts);
  (* 4. A proof must survive independent certificate replay. *)
  if certify && List.mem "sim" equiv then begin
    match snd (Simsweep.Certificate.certify ~pool miter) with
    | Simsweep.Certificate.Invalid e -> add (Bad_certificate e)
    | Validated _ | Incomplete -> ()
  end;
  { verdicts; failures = List.rev !failures }
