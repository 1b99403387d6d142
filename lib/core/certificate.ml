type t = { steps : Engine.trace_step list; claims_proved : bool }

let generate ?config ?cancel ~pool miter =
  let steps = ref [] in
  let result =
    Engine.run ?config ?cancel ~trace:(fun s -> steps := s :: !steps) ~pool
      miter
  in
  ( result,
    {
      steps = List.rev !steps;
      claims_proved = result.Engine.outcome = Engine.Proved;
    } )

(* Prove [a_lit == b_lit] on [g] with the SAT solver already loaded with
   [g]'s CNF. *)
let sat_equal solver ~conflict_limit a_lit b_lit =
  let a = Sat.Cnf.lit a_lit and b = Sat.Cnf.lit b_lit in
  let query assumptions =
    match Sat.Solver.solve ~assumptions ~conflict_limit solver with
    | Sat.Solver.Unsat -> `Unsat
    | Sat.Solver.Sat -> `Sat
    | Sat.Solver.Unknown -> `Unknown
  in
  match query [ a; Sat.Solver.neg b ] with
  | `Sat -> `Refuted
  | `Unknown -> `Unknown
  | `Unsat -> (
      match query [ Sat.Solver.neg a; b ] with
      | `Sat -> `Refuted
      | `Unknown -> `Unknown
      | `Unsat -> `Proved)

let validate ?(conflict_limit = max_int) miter cert =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec replay step_no g = function
    | [] ->
        if
          cert.claims_proved
          && not (Aig.Miter.solved (Aig.Reduce.sweep g).Aig.Reduce.network)
        then fail "certificate claims a proof but the replayed miter is unsolved"
        else Ok g
    | (step : Engine.trace_step) :: rest -> (
        let solver = Sat.Solver.create () in
        let refuted a b = sat_equal solver ~conflict_limit a b <> `Proved in
        if not (Sat.Cnf.load solver g) then
          fail "step %d: intermediate miter has contradictory CNF" step_no
        else
          (* Re-prove the step's claims on the current miter, then apply it
             as the engine did. *)
          match
            List.find_opt
              (fun i ->
                let l = Aig.Network.po g i in
                l <> Aig.Lit.const_false && refuted l Aig.Lit.const_false)
              step.Engine.trace_pos
          with
          | Some i -> fail "step %d: PO %d is not constant false" step_no i
          | None -> (
              match
                List.find_opt
                  (fun (n, l) -> refuted (Aig.Lit.make n false) l)
                  step.Engine.trace_merges
              with
              | Some (n, l) ->
                  fail "step %d: node %d is not equivalent to literal %d"
                    step_no n l
              | None ->
                  replay (step_no + 1)
                    (Engine.apply_step g step).Aig.Reduce.network rest))
  in
  replay 1 (Aig.Network.copy miter) cert.steps

type check = Validated of int | Incomplete | Invalid of string

let certify ?cancel ~pool miter =
  let run, cert = generate ~config:Config.scaled ?cancel ~pool miter in
  ( run.Engine.outcome,
    if not cert.claims_proved then Incomplete
    else
      match validate miter cert with
      | Error e -> Invalid e
      | Ok replayed when not (Aig.Miter.solved replayed) ->
          Invalid "replayed miter not fully solved"
      | Ok _ -> Validated (List.length cert.steps) )
