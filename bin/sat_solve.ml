(* simsweep-sat: standalone DIMACS SAT solver on the CDCL core.

     dune exec bin/sat_solve.exe -- problem.cnf
     dune exec bin/sat_solve.exe -- miter.aag              # solve a miter
     dune exec bin/sat_solve.exe -- --dump-cnf miter.aag   # export it

   Prints the conventional "s SATISFIABLE"/"s UNSATISFIABLE" verdict and a
   model line; exit codes follow the SAT-competition convention
   (10 = SAT, 20 = UNSAT).  A file that does not parse and a usage error
   print a message on stderr and exit 2. *)

(* The DIMACS text of [path]: a .cnf file as it is, anything else
   converted as an AIGER miter. *)
let read_cnf path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  if Filename.check_suffix path ".cnf" then Ok text
  else
    match Aig.Aiger_io.of_string text with
    | g -> Ok (Sat.Dimacs.of_miter g)
    | exception Aig.Aiger_io.Parse_error e -> Error ("parse error: " ^ e)

let solve_cnf text conflict_limit no_simplify =
  let loaded =
    if no_simplify then begin
      let solver = Sat.Solver.create () in
      let model () =
        Array.init (Sat.Solver.num_vars solver) (Sat.Solver.model_value solver)
      in
      Result.map (fun _ -> (solver, model)) (Sat.Dimacs.load solver text)
    end
    else
      Result.map
        (fun (nvars, clauses) ->
          let r = Sat.Simplify.run ~nvars ~frozen:[] clauses in
          (r.Sat.Simplify.solver, fun () -> Sat.Simplify.model r))
        (Sat.Dimacs.cnf text)
  in
  match loaded with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      2
  | Ok (solver, model) -> (
      match Sat.Solver.solve ~conflict_limit solver with
      | Sat.Solver.Unsat ->
          print_endline "s UNSATISFIABLE";
          20
      | Sat.Solver.Unknown ->
          print_endline "s UNKNOWN";
          0
      | Sat.Solver.Sat ->
          print_endline "s SATISFIABLE";
          print_string "v";
          Array.iteri
            (fun v b -> Printf.printf " %d" (if b then v + 1 else -(v + 1)))
            (model ());
          print_endline " 0";
          10)

let solve_file path conflict_limit dump no_simplify =
  match read_cnf path with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      2
  | Ok text when dump ->
      print_string text;
      0
  | Ok text -> solve_cnf text conflict_limit no_simplify

open Cmdliner

let path =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"DIMACS .cnf file, or an AIGER miter to convert and solve.")

let conflict_limit =
  Arg.(value & opt int max_int & info [ "C"; "conflicts" ] ~docv:"N"
         ~doc:"Conflict budget (prints s UNKNOWN when exhausted).")

let dump =
  Arg.(value & flag & info [ "dump-cnf" ]
         ~doc:"Print the DIMACS formula instead of solving (useful with an \
               AIGER miter, to hand the problem to an external solver).")

let no_simplify =
  Arg.(value & flag & info [ "no-simplify" ]
         ~doc:"Skip preprocessing (BVE, subsumption, equivalent literals, \
               XOR/Gauss, probing) before the search.")

let cmd =
  let doc = "CDCL SAT solver over DIMACS or AIGER miters" in
  Cmd.v (Cmd.info "simsweep-sat" ~doc)
    Term.(const solve_file $ path $ conflict_limit $ dump $ no_simplify)

let () = exit (Cli.eval cmd)
