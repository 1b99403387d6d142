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

let run_script state text =
  match Shell.Command.exec_script state text with
  | Ok out ->
      print_string out;
      0
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1

let () =
  (* Children spawned by `cec shard` re-exec this binary as workers. *)
  Shard.Worker.maybe_become_worker ();
  let state = Shell.Command.create () in
  let code =
    match Array.to_list Sys.argv with
    | [ _ ] -> interactive state
    | [ _; "-c"; script ] | [ _; "--command"; script ] -> run_script state script
    | [ _; file ] -> (
        (* An unreadable script is an I/O error, not a script failure. *)
        match In_channel.with_open_bin file In_channel.input_all with
        | text -> run_script state text
        | exception Sys_error e ->
            Printf.eprintf "error: %s\n" e;
            2)
    | _ ->
        prerr_endline "usage: simsweep-shell [SCRIPT | -c COMMANDS]";
        2
  in
  exit code
