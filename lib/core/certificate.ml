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
  let g = ref (Aig.Network.copy miter) in
  let step_no = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec replay = function
    | [] ->
        if cert.claims_proved && not (Aig.Miter.solved (Aig.Reduce.sweep !g).Aig.Reduce.network)
        then fail "certificate claims a proof but the replayed miter is unsolved"
        else Ok !g
    | (step : Engine.trace_step) :: rest -> (
        incr step_no;
        let solver = Sat.Solver.create () in
        if not (Sat.Cnf.load solver !g) then
          fail "step %d: intermediate miter has contradictory CNF" !step_no
        else
          (* Validate the step's claims on the current miter. *)
          let bad_po =
            List.find_opt
              (fun i ->
                let l = Aig.Network.po !g i in
                l <> Aig.Lit.const_false
                && sat_equal solver ~conflict_limit l Aig.Lit.const_false
                   <> `Proved)
              step.Engine.trace_pos
          in
          match bad_po with
          | Some i -> fail "step %d: PO %d is not constant false" !step_no i
          | None -> (
              let bad_merge =
                List.find_opt
                  (fun (n, l) ->
                    sat_equal solver ~conflict_limit (Aig.Lit.make n false) l
                    <> `Proved)
                  step.Engine.trace_merges
              in
              match bad_merge with
              | Some (n, l) ->
                  fail "step %d: node %d is not equivalent to literal %d"
                    !step_no n l
              | None ->
                  (* Apply the step's reduction exactly as the engine did. *)
                  (match step.Engine.trace_phase with
                  | `P ->
                      List.iter
                        (fun i -> Aig.Network.set_po !g i Aig.Lit.const_false)
                        step.Engine.trace_pos;
                      g := (Aig.Reduce.sweep !g).Aig.Reduce.network
                  | `G | `L _ ->
                      let repl =
                        Array.make (Aig.Network.num_nodes !g) None
                      in
                      List.iter
                        (fun (n, l) -> repl.(n) <- Some l)
                        step.Engine.trace_merges;
                      g := (Aig.Reduce.apply !g ~repl).Aig.Reduce.network);
                  replay rest))
  in
  replay cert.steps

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
