(* The command interpreter behind simsweep-shell. *)

let exec_ok st cmd =
  match Shell.Command.exec st cmd with
  | Ok out -> out
  | Error e -> Alcotest.failf "command %S failed: %s" cmd e

let exec_err st cmd =
  match Shell.Command.exec st cmd with
  | Error e -> e
  | Ok out -> Alcotest.failf "command %S unexpectedly succeeded: %s" cmd out

let with_state f = Util.with_pool (fun pool -> f (Shell.Command.create ~pool ()))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_gen_and_stats () =
  with_state (fun st ->
      let out = exec_ok st "gen adder 4" in
      Alcotest.(check bool) "stats printed" true (contains out "pi=8");
      let out = exec_ok st "stats" in
      Alcotest.(check bool) "po count" true (contains out "po=5"))

let test_comments_and_blank () =
  with_state (fun st ->
      Alcotest.(check string) "blank" ""
        (match Shell.Command.exec st "   " with Ok s -> s | Error e -> e);
      Alcotest.(check string) "comment" ""
        (match Shell.Command.exec st "# a comment" with Ok s -> s | Error e -> e))

let test_no_current () =
  with_state (fun st ->
      let e = exec_err st "stats" in
      Alcotest.(check bool) "explains" true (contains e "no current network"))

let test_store_load_miter_cec () =
  with_state (fun st ->
      ignore (exec_ok st "gen multiplier 6");
      ignore (exec_ok st "store golden");
      ignore (exec_ok st "xorflip");
      ignore (exec_ok st "miter golden");
      let out = exec_ok st "cec sim" in
      Alcotest.(check bool) "equivalent" true (contains out "EQUIVALENT");
      Alcotest.(check bool) "not NOT" false (contains out "NOT EQUIVALENT"))

let test_all_engines () =
  with_state (fun st ->
      ignore (exec_ok st "gen adder 5");
      ignore (exec_ok st "store a");
      ignore (exec_ok st "light");
      ignore (exec_ok st "miter a");
      List.iter
        (fun engine ->
          let name = Shell.Engines.to_string engine in
          Alcotest.(check bool) (name ^ " round-trips") true
            (Shell.Engines.of_string name = Ok engine);
          match engine with
          | Shell.Engines.Shard _ -> () (* see test_shard_guard *)
          | _ ->
              let out = exec_ok st ("cec " ^ name) in
              Alcotest.(check bool) (name ^ " equivalent") true
                (contains out "EQUIVALENT"))
        Shell.Engines.all;
      Alcotest.(check bool) "bare shard" true
        (Shell.Engines.of_string "shard" = Ok (Shell.Engines.Shard 2));
      Alcotest.(check bool) "no racing portfolio" true
        (Result.is_error (Shell.Engines.of_string "portfolio.race"));
      let e = exec_err st "cec shard.0" in
      Alcotest.(check bool) "bad worker count" true (contains e "bad worker count");
      let e = exec_err st "cec nonsense" in
      Alcotest.(check bool) "unknown engine" true (contains e "unknown engine"))

(* This test binary never calls [Shard.Worker.maybe_become_worker], so a
   re-exec of it would run the test suite again instead of a worker: the
   shard engine must refuse before spawning anything. *)
let test_shard_guard () =
  with_state (fun st ->
      ignore (exec_ok st "gen adder 4");
      ignore (exec_ok st "store a");
      ignore (exec_ok st "miter a");
      let e = exec_err st "cec shard" in
      Alcotest.(check bool) "refused" true (contains e "cannot host");
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | pid, _ -> Alcotest.failf "child process %d spawned" pid)

(* The shell's and daemon's [cec combined] is cec's: the SAT fallback is
   seeded with the engine's equivalence classes.  A 12-bit divider
   against its balanced self leaves work for SAT under [Config.scaled],
   and the transfer changes what that SAT run does. *)
let test_combined_transfers_classes () =
  let g = Gen.Divider.divide ~bits:12 in
  let m = Aig.Miter.build g (Opt.Balance.run g) in
  let pool = Par.Pool.create ~num_domains:1 () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () ->
      let fallback json =
        match Simsweep.Telemetry.member "sat_fallback" json with
        | Some j -> Simsweep.Telemetry.to_string j
        | None -> Alcotest.fail "no sat_fallback field"
      in
      let direct transfer_classes =
        fallback
          (Simsweep.Telemetry.of_combined
             (Simsweep.Engine.check_with_fallback
                ~config:Simsweep.Config.scaled ~transfer_classes ~pool m))
      in
      let table =
        match Shell.Engines.run ~pool Shell.Engines.Combined m with
        | Ok { Shell.Engines.stats = [ ("combined", j) ]; _ } -> fallback j
        | Ok _ -> Alcotest.fail "combined reports no combined field"
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "SAT fallback ran" true (table <> "null");
      Alcotest.(check bool) "transfer changes the SAT run" true
        (direct true <> direct false);
      Alcotest.(check string) "same SAT run as transfer_classes:true"
        (direct true) table)

let test_certify () =
  with_state (fun st ->
      ignore (exec_ok st "gen multiplier 6");
      ignore (exec_ok st "store g");
      ignore (exec_ok st "resyn2");
      ignore (exec_ok st "miter g");
      let out = exec_ok st "certify" in
      Alcotest.(check bool) "validated" true (contains out "validated"))

let test_script_and_files () =
  with_state (fun st ->
      let tmp = Filename.temp_file "shell" ".aag" in
      let dot = Filename.temp_file "shell" ".dot" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove tmp;
          Sys.remove dot)
        (fun () ->
          match
            Shell.Command.exec_script st
              (Printf.sprintf
                 "gen voter 9; write %s; dot %s\nread %s; stats" tmp dot tmp)
          with
          | Ok out ->
              Alcotest.(check bool) "wrote file" true (contains out "written");
              Alcotest.(check bool) "reloaded" true (contains out "pi=9");
              Alcotest.(check bool) "dot exists" true (Sys.file_exists dot)
          | Error e -> Alcotest.failf "script failed: %s" e))

let test_sim_output () =
  with_state (fun st ->
      ignore (exec_ok st "gen adder 2");
      let out = exec_ok st "sim 3" in
      let lines = String.split_on_char '\n' out in
      Alcotest.(check int) "three vectors" 3 (List.length lines);
      List.iter
        (fun l ->
          (* 4 input bits, space, 3 output bits *)
          Alcotest.(check int) "line shape" 8 (String.length l))
        lines)

let test_inequivalent_report () =
  with_state (fun st ->
      (* Multiplier and divider share the 8-PI/8-PO interface but compute
         different functions. *)
      ignore (exec_ok st "gen multiplier 4");
      ignore (exec_ok st "store a");
      ignore (exec_ok st "gen divider 4");
      ignore (exec_ok st "miter a");
      let out = exec_ok st "cec combined" in
      Alcotest.(check bool) "not equivalent" true (contains out "NOT EQUIVALENT"))

(* Regression: a [#] inside a word (e.g. a filename) is not a comment —
   only a [#] at the start of the line or after a blank is. *)
let test_hash_in_filename () =
  with_state (fun st ->
      let dir = Filename.temp_file "shell" ".d" in
      Sys.remove dir;
      Sys.mkdir dir 0o755;
      let file = Filename.concat dir "net#1.aag" in
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists file then Sys.remove file;
          Sys.rmdir dir)
        (fun () ->
          ignore (exec_ok st "gen adder 4");
          let out = exec_ok st ("write " ^ file) in
          Alcotest.(check bool) "wrote" true (contains out "written");
          Alcotest.(check bool) "file exists" true (Sys.file_exists file);
          let out = exec_ok st ("read " ^ file) in
          Alcotest.(check bool) "reloaded" true (contains out "pi=8");
          (* Trailing comments still work. *)
          let out = exec_ok st "stats   # the adder again" in
          Alcotest.(check bool) "comment stripped" true (contains out "pi=8");
          Alcotest.(check string) "whole-line comment" ""
            (exec_ok st "# stats would fail on a blank state")))

(* Quotes group words: filenames may contain blanks and [;], and a
   quoted [;] does not split a script. *)
let test_quoted_filenames () =
  with_state (fun st ->
      let dir = Filename.temp_file "shell" ".d" in
      Sys.remove dir;
      Sys.mkdir dir 0o755;
      let file = Filename.concat dir "a;b c.aag" in
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists file then Sys.remove file;
          Sys.rmdir dir)
        (fun () ->
          match
            Shell.Command.exec_script st
              (Printf.sprintf "gen voter 5; write \"%s\"; read \"%s\"" file file)
          with
          | Ok out ->
              Alcotest.(check bool) "file exists" true (Sys.file_exists file);
              Alcotest.(check bool) "reloaded" true (contains out "pi=5")
          | Error e -> Alcotest.failf "script failed: %s" e))

(* A line is scanned as a script is: [;] separates commands, which run in
   order up to the first error. *)
let test_line_of_commands () =
  with_state (fun st ->
      let out = exec_ok st "gen adder 4; stats  # both" in
      Alcotest.(check int) "two outputs" 2
        (List.length (String.split_on_char '\n' out));
      Alcotest.(check bool) "unknown command" true
        (contains (exec_err st "stats; frobnicate; stats") "unknown command"))

(* Script errors name the offending command and its 1-based index. *)
let test_script_error_index () =
  with_state (fun st ->
      match Shell.Command.exec_script st "gen adder 4\nfrobnicate; stats" with
      | Ok _ -> Alcotest.fail "script should fail"
      | Error e ->
          Alcotest.(check bool) "index" true (contains e "command 2");
          Alcotest.(check bool) "text" true (contains e "frobnicate");
          Alcotest.(check bool) "cause" true (contains e "unknown command"))

(* Concurrent sessions: N domains, each with its own state, all sharing
   one pool.  Stores stay isolated, every check concludes correctly, and
   nothing crashes or deadlocks. *)
let test_concurrent_sessions () =
  let n = 4 in
  Util.with_pool @@ fun pool ->
  let results =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            let st = Shell.Command.create ~pool () in
            let name = Printf.sprintf "g%d" i in
            let script =
              Printf.sprintf
                "gen adder %d; store %s; xorflip; miter %s; cec sim; load %s"
                (4 + i) name name name
            in
            (* Another session's store name must be invisible here. *)
            let other = Printf.sprintf "g%d" ((i + 1) mod n) in
            ( Shell.Command.exec_script st script,
              Shell.Command.exec st ("load " ^ other) )))
    |> Array.map Domain.join
  in
  Array.iteri
    (fun i (script_result, load_missing) ->
      (match script_result with
      | Ok out ->
          Alcotest.(check bool)
            (Printf.sprintf "session %d equivalent" i)
            true (contains out "EQUIVALENT")
      | Error e -> Alcotest.failf "session %d failed: %s" i e);
      match load_missing with
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "session %d isolated" i)
            true (contains e "no stored network")
      | Ok _ -> Alcotest.failf "session %d saw another session's store" i)
    results

let test_errors () =
  with_state (fun st ->
      ignore (exec_err st "gen nosuchfamily");
      ignore (exec_err st "gen adder -3");
      ignore (exec_err st "load missing");
      ignore (exec_err st "read /nonexistent/file.aag");
      ignore (exec_err st "frobnicate");
      (* Script stops at the first error. *)
      match Shell.Command.exec_script st "gen adder 4; frobnicate; stats" with
      | Error e -> Alcotest.(check bool) "reports" true (contains e "unknown command")
      | Ok _ -> Alcotest.fail "script should fail")

let () =
  Alcotest.run "shell"
    [
      ( "unit",
        [
          Alcotest.test_case "gen/stats" `Quick test_gen_and_stats;
          Alcotest.test_case "comments" `Quick test_comments_and_blank;
          Alcotest.test_case "no current" `Quick test_no_current;
          Alcotest.test_case "store/load/miter/cec" `Quick test_store_load_miter_cec;
          Alcotest.test_case "all engines" `Quick test_all_engines;
          Alcotest.test_case "shard guard" `Quick test_shard_guard;
          Alcotest.test_case "combined transfers classes" `Quick
            test_combined_transfers_classes;
          Alcotest.test_case "certify" `Quick test_certify;
          Alcotest.test_case "script/files" `Quick test_script_and_files;
          Alcotest.test_case "sim output" `Quick test_sim_output;
          Alcotest.test_case "inequivalent" `Quick test_inequivalent_report;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "hash in filename" `Quick test_hash_in_filename;
          Alcotest.test_case "quoted filenames" `Quick test_quoted_filenames;
          Alcotest.test_case "script error index" `Quick test_script_error_index;
          Alcotest.test_case "concurrent sessions" `Quick
            test_concurrent_sessions;
          Alcotest.test_case "line of commands" `Quick test_line_of_commands;
        ] );
    ]
