(* Command-line value converters shared by the executables. *)

(* An integer of at least 1, such as a worker count.  Anything else is a
   usage error. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

(* [eval cmd] runs [cmd] and returns its exit code; usage errors the
   parser reports itself (an unknown option, a bad value) exit 2. *)
let eval cmd =
  let code = Cmdliner.Cmd.eval' cmd in
  if code = Cmdliner.Cmd.Exit.cli_error then 2 else code
