(* Client side of the daemon protocol, shared by the CLI binaries. *)

module Protocol = Shard.Protocol

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* "host:port" is TCP, anything else a Unix socket path. *)
let parse_addr s : Server.addr =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 -> Server.Tcp ((if host = "" then "127.0.0.1" else host), p)
      | _ -> Server.Unix_path s)
  | None -> Server.Unix_path s

let connect addr =
  let sockaddr, domain =
    match addr with
    | Server.Unix_path path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
    | Server.Tcp (host, port) ->
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        (Unix.ADDR_INET (ip, port), Unix.PF_INET)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () ->
      Ok
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
        }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let request t req : (Protocol.response, string) result =
  let hdr, payload = Protocol.request_to_frame req in
  match Protocol.write_frame ~payload t.oc hdr with
  | exception Sys_error e -> Error ("send: " ^ e)
  | () -> (
      match Protocol.read_frame t.ic with
      | Error e -> Error ("receive: " ^ e)
      | Ok inc -> Protocol.response_of_json inc.Protocol.hdr)
