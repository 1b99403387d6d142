type t = {
  pid : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let pid w = w.pid
let fd w = w.fd
let ic w = w.ic
let oc w = w.oc

let env ~domains =
  let keep s =
    not
      (String.starts_with ~prefix:(Worker.mode_env ^ "=") s
      || String.starts_with ~prefix:(Worker.domains_env ^ "=") s)
  in
  let base = Array.to_list (Unix.environment ()) |> List.filter keep in
  Array.of_list
    (base
    @ [
        Worker.mode_env ^ "=1";
        Printf.sprintf "%s=%d" Worker.domains_env (max 1 domains);
      ])

let spawn ~exe ~domains =
  let parent, child = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec parent;
  let pid =
    Unix.create_process_env exe [| exe |] (env ~domains) child child Unix.stderr
  in
  Unix.close child;
  {
    pid;
    fd = parent;
    ic = Unix.in_channel_of_descr parent;
    oc = Unix.out_channel_of_descr parent;
  }

let kill w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try close_in_noerr w.ic with _ -> ());
  (try ignore (Unix.waitpid [] w.pid) with _ -> ())
