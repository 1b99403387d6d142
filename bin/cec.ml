(* simsweep-cec: combinational equivalence checker CLI.

   Checks two AIGER files (or a generated benchmark case) with an engine
   of the shared table (Shell.Engines): the simulation-based engine (the
   paper's contribution), the SAT sweeper baseline, the BDD engine, the
   portfolio, the combined engine+SAT flow of Table II, or sharded
   worker processes. *)

(* Malformed AIGER, unreadable files and miter sides that disagree on
   their PI/PO counts are input errors, reported as [Error]. *)
let read_inputs file1 file2 suite scale post_double =
  let enlarge (name, miter) =
    if post_double <= 0 then (name, miter)
    else
      ( Printf.sprintf "%s(x%d)" name (1 lsl post_double),
        Gen.Double.times post_double miter )
  in
  try
    match (file1, file2, suite) with
    | Some f1, Some f2, None ->
        let g1 = Aig.Aiger_io.read_file f1 and g2 = Aig.Aiger_io.read_file f2 in
        Ok (enlarge (Printf.sprintf "%s vs %s" f1 f2, Aig.Miter.build g1 g2))
    | Some f1, None, None ->
        (* A single file is interpreted as an already-built miter. *)
        Ok (enlarge (f1, Aig.Aiger_io.read_file f1))
    | None, None, Some name ->
        let case = Gen.Suite.build ~scale name in
        Ok (enlarge ("suite:" ^ name, case.Gen.Suite.miter))
    | _ -> Error "give either FILE [FILE2] or --suite NAME"
  with
  | Aig.Aiger_io.Parse_error e -> Error ("parse error: " ^ e)
  | Sys_error e | Invalid_argument e -> Error e

let exit_code = function
  | Simsweep.Engine.Proved -> 0
  | Simsweep.Engine.Disproved _ -> 1
  | Simsweep.Engine.Undecided -> 3

let run_local engine name miter num_domains verbose certify stats_json =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let pool = Par.Pool.create ?num_domains () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Printf.printf "miter %s: %s\n%!" name
    (Format.asprintf "%a" Aig.Stats.pp (Aig.Stats.of_network miter));
  match Shell.Engines.run ~pool engine miter with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      2
  | Ok r ->
      let outcome = r.Shell.Engines.outcome in
      let elapsed = Unix.gettimeofday () -. t0 in
      Printf.printf "%s  (%.3fs)\n" r.Shell.Engines.summary elapsed;
      (match stats_json with
      | Some file ->
          let open Simsweep.Telemetry in
          (* "engine" names the family: shard.4 reports as shard. *)
          let family =
            List.hd (String.split_on_char '.' (Shell.Engines.to_string engine))
          in
          let j =
            Obj
              ([
                 ("name", String name);
                 ("engine", String family);
                 ("outcome", String (outcome_string outcome));
                 ("time_s", Float elapsed);
                 ( "miter",
                   Obj
                     [
                       ("pis", Int (Aig.Network.num_pis miter));
                       ("pos", Int (Aig.Network.num_pos miter));
                       ("ands", Int (Aig.Network.num_ands miter));
                     ] );
                 ("pool", of_pool (Par.Pool.stats pool));
               ]
              @ r.Shell.Engines.stats)
          in
          (try
             write_file file j;
             if verbose then Printf.printf "stats written to %s\n" file
           with Sys_error msg ->
             Printf.eprintf "cec: cannot write stats file: %s\n" msg)
      | None -> ());
      (if certify then
         match outcome with
         | Simsweep.Engine.Proved -> (
             match snd (Simsweep.Certificate.certify ~pool miter) with
             | Simsweep.Certificate.Validated steps ->
                 Printf.printf "certificate: %d steps validated independently\n"
                   steps
             | Simsweep.Certificate.Incomplete ->
                 print_endline
                   "certificate: engine alone could not complete a certificate \
                    (SAT fallback was needed)"
             | Simsweep.Certificate.Invalid e ->
                 Printf.printf "certificate INVALID: %s\n" e)
         | _ -> print_endline "certificate: only produced for proved miters");
      exit_code outcome

let run_check engine file1 file2 suite scale post_double num_domains verbose
    certify stats_json =
  match read_inputs file1 file2 suite scale post_double with
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      2
  | Ok (name, miter) ->
      run_local engine name miter num_domains verbose certify stats_json

open Cmdliner

let engine =
  let parse s = Result.map_error (fun e -> `Msg e) (Shell.Engines.of_string s) in
  let print ppf e = Format.pp_print_string ppf (Shell.Engines.to_string e) in
  Arg.(value & opt (conv (parse, print)) Shell.Engines.Combined
       & info [ "e"; "engine" ] ~docv:"ENGINE"
         ~doc:"Checking engine: sim (simulation-based), combined (sim + \
               SAT fallback, the paper's Table II flow), sat (SAT \
               sweeping), satdirect (monolithic SAT per output), bdd, \
               portfolio, partitioned (the shard planner's shards, checked \
               in process) or shard[.N] (up to N worker processes, \
               default 2, sharing the --domains budget).")

let file1 =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"First AIGER file (or a miter when FILE2 is omitted).")

let file2 =
  Arg.(value & pos 1 (some file) None & info [] ~docv:"FILE2" ~doc:"Second AIGER file.")

let suite =
  Arg.(value & opt (some string) None & info [ "suite" ] ~docv:"NAME"
         ~doc:"Check a generated Table II benchmark case instead of files \
               (hyp, log2, multiplier, sqrt, square, voter, sin, ac97_ctrl, \
               vga_lcd).")

let scale =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N"
         ~doc:"Doubling scale for --suite cases (0 disables doubling).")

let post_double =
  Arg.(value & opt int 0 & info [ "post-double" ] ~docv:"K"
         ~doc:"Enlarge the built miter by K doublings ($(b,2^K) disjoint \
               copies) before checking — the paper's enlargement method, \
               applied to the miter itself; useful for exercising the \
               shard engine on giant instances.")

let num_domains =
  Arg.(value & opt (some Cli.positive_int) None
       & info [ "j"; "domains" ] ~docv:"N"
         ~doc:"Worker domains, at least 1 (default: machine-dependent).")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ]
         ~doc:"Log engine progress and report where --stats-json was written.")

let certify =
  Arg.(value & flag & info [ "certify" ]
         ~doc:"After a proof, regenerate it with a merge-trace certificate \
               and validate every step independently with the SAT solver.")

let stats_json =
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
         ~doc:"Write a machine-readable telemetry snapshot (outcome, \
               per-phase times, window/word counts, pool utilization, SAT \
               effort) to FILE as JSON.")

let cmd =
  let doc = "simulation-based parallel sweeping equivalence checker" in
  Cmd.v
    (Cmd.info "simsweep-cec" ~doc)
    Term.(
      const run_check $ engine $ file1 $ file2 $ suite $ scale $ post_double
      $ num_domains $ verbose $ certify $ stats_json)

let () =
  (* Re-exec'ed children of shard coordinators become workers here. *)
  Shard.Worker.maybe_become_worker ();
  (* Usage errors (an unknown option, a FILE that does not exist, a bad
     engine name) exit 2 like every other error. *)
  exit (Cli.eval cmd)
