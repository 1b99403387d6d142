(* simsweep-shell: interactive ABC-style shell over the toolkit.

     dune exec bin/shell_main.exe                 # interactive
     dune exec bin/shell_main.exe -- script.ss    # run a script file
     dune exec bin/shell_main.exe -- -c "gen multiplier 8; store a; resyn2; miter a; cec"
*)

let interactive state =
  (try
     while true do
       print_string "simsweep> ";
       let line = read_line () in
       if String.trim line = "quit" || String.trim line = "exit" then raise Exit;
       match Shell.Command.exec state line with
       | Ok "" -> ()
       | Ok out -> print_endline out
       | Error e -> Printf.printf "error: %s\n" e
     done
   with End_of_file | Exit -> ());
  0

let () =
  (* Children spawned by `cec shard` re-exec this binary as workers. *)
  Shard.Worker.maybe_become_worker ();
  let state = Shell.Command.create () in
  let code =
    match Array.to_list Sys.argv with
    | [ _ ] -> interactive state
    | [ _; "-c"; script ] | [ _; "--command"; script ] -> (
        match Shell.Command.exec_script state script with
        | Ok out ->
            print_string out;
            0
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            1)
    | [ _; file ] -> (
        let ic = open_in file in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Shell.Command.exec_script state text with
        | Ok out ->
            print_string out;
            0
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            1)
    | _ ->
        prerr_endline "usage: simsweep-shell [SCRIPT | -c COMMANDS]";
        2
  in
  exit code
