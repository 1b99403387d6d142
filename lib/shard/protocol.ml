(* Wire protocol: 4-byte big-endian header length, then that many bytes
   of JSON (the hand-rolled [Simsweep.Telemetry] flavour), then an
   optional raw binary trailer whose size the header carries as
   ["payload_len"].  Bulk bytes — AIGER images and counter-example bit
   strings — ride the trailer: written and read with exactly one copy
   and zero JSON escaping. *)

module E = Simsweep.Engine

type io = {
  mutable io_bytes_tx : int;
  mutable io_bytes_rx : int;
  mutable io_frames_tx : int;
  mutable io_frames_rx : int;
}

let io_create () =
  { io_bytes_tx = 0; io_bytes_rx = 0; io_frames_tx = 0; io_frames_rx = 0 }

(* A frame larger than this is a protocol error, not an allocation.
   Shards are planned far below it; [set_max_frame] lowers it so the
   boundary can be tested without 256 MB frames. *)
let default_max_frame = 256 * 1024 * 1024
let min_max_frame = 64 * 1024
let max_frame_cap = Atomic.make default_max_frame
let max_frame () = Atomic.get max_frame_cap
let set_max_frame n = Atomic.set max_frame_cap (max min_max_frame n)

type shard_task =
  | Shard_check of {
      shard : int;
      aiger : string;
      deadline_in : float option;
    }

type shard_reply =
  | Shard_ready
  | Shard_verdict of {
      shard : int;
      verdict : E.outcome;
      wall_s : float;
      conflicts : int;
    }
  | Shard_failed of { shard : int; msg : string }

type error = Eof | Bad of string

open Simsweep.Telemetry

(* {2 Framing} *)

(* One frame of header [fields], with ["payload_len"] appended when a
   trailer follows. *)
let write_frame ?io ~payload oc fields =
  let plen = String.length payload in
  let fields = if plen = 0 then fields else fields @ [ ("payload_len", Int plen) ] in
  let body = to_string (Obj fields) in
  let n = String.length body in
  if n + plen > max_frame () then invalid_arg "Protocol: frame too large";
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  output_bytes oc hdr;
  output_string oc body;
  if plen > 0 then output_string oc payload;
  (match io with
  | Some io ->
      io.io_bytes_tx <- io.io_bytes_tx + 4 + n + plen;
      io.io_frames_tx <- io.io_frames_tx + 1
  | None -> ());
  Stdlib.flush oc

let really_read ic buf len =
  let off = ref 0 in
  (try
     while !off < len do
       let r = input ic buf !off (len - !off) in
       if r = 0 then raise End_of_file;
       off := !off + r
     done
     (* A peer that died (SIGKILLed shard worker) surfaces as [Sys_error]
        rather than a clean EOF — same outcome for the reader: the frame
        is not coming. *)
   with End_of_file | Sys_error _ -> ());
  !off = len

(* One frame: its JSON header and its trailer ([""] when absent). *)
let read_frame ?io ic =
  let count_rx bytes =
    match io with
    | Some io ->
        io.io_bytes_rx <- io.io_bytes_rx + bytes;
        io.io_frames_rx <- io.io_frames_rx + 1
    | None -> ()
  in
  let hdr = Bytes.create 4 in
  if not (really_read ic hdr 4) then Error Eof
  else
    let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if n < 0 || n > max_frame () then
      Error (Bad (Printf.sprintf "bad frame length %d" n))
    else
      let body = Bytes.create n in
      if not (really_read ic body n) then Error (Bad "eof inside frame")
      else
        match parse (Bytes.to_string body) with
        | Error e -> Error (Bad ("bad frame json: " ^ e))
        | Ok j -> (
            match Option.value ~default:0 (int_member "payload_len" j) with
            | 0 ->
                count_rx (4 + n);
                Ok (j, "")
            | plen when plen < 0 || n + plen > max_frame () ->
                Error (Bad (Printf.sprintf "bad payload length %d" plen))
            | plen ->
                let p = Bytes.create plen in
                if not (really_read ic p plen) then Error (Bad "eof inside payload")
                else begin
                  count_rx (4 + n + plen);
                  Ok (j, Bytes.unsafe_to_string p)
                end)

(* {2 Messages} *)

let send_task ?io oc (Shard_check { shard; aiger; deadline_in }) =
  write_frame ?io ~payload:aiger oc
    ([ ("type", String "shard-check"); ("shard", Int shard) ]
    @
    match deadline_in with
    | Some s -> [ ("deadline_in", Float s) ]
    | None -> [])

let recv_task ?io ic =
  Result.bind (read_frame ?io ic) @@ fun (j, payload) ->
  match (string_member "type" j, int_member "shard" j) with
  | Some "shard-check", Some shard when payload <> "" ->
      Ok (Shard_check { shard; aiger = payload; deadline_in = float_member "deadline_in" j })
  | Some "shard-check", _ -> Error (Bad "shard-check: missing shard id or aiger")
  | Some other, _ -> Error (Bad ("unknown shard task " ^ other))
  | None, _ -> Error (Bad "missing message type")

(* The verdict tag rides the header; a disproof's CEX bits, one ['0'] or
   ['1'] per sub-miter PI, ride the trailer. *)
let send_reply ?io oc = function
  | Shard_ready -> write_frame ?io ~payload:"" oc [ ("type", String "shard-ready") ]
  | Shard_verdict { shard; verdict; wall_s; conflicts } ->
      let tag, payload =
        match verdict with
        | E.Proved -> ([ ("verdict", String "proved") ], "")
        | E.Disproved (cex, po) ->
            ( [ ("verdict", String "disproved"); ("po", Int po) ],
              String.init (Array.length cex) (fun i -> if cex.(i) then '1' else '0') )
        | E.Undecided -> ([ ("verdict", String "undecided") ], "")
      in
      write_frame ?io ~payload oc
        ([
           ("type", String "shard-verdict");
           ("shard", Int shard);
           ("wall_s", Float wall_s);
           ("conflicts", Int conflicts);
         ]
        @ tag)
  | Shard_failed { shard; msg } ->
      write_frame ?io ~payload:"" oc
        [ ("type", String "shard-failed"); ("shard", Int shard); ("msg", String msg) ]

let recv_reply ?io ic =
  Result.bind (read_frame ?io ic) @@ fun (j, payload) ->
  match (string_member "type" j, int_member "shard" j, string_member "msg" j) with
  | Some "shard-ready", _, _ -> Ok Shard_ready
  | Some "shard-verdict", Some shard, _ -> (
      let verdict =
        match (string_member "verdict" j, int_member "po" j) with
        | Some "proved", _ -> Some E.Proved
        | Some "undecided", _ -> Some E.Undecided
        | Some "disproved", Some po ->
            let cex = Array.init (String.length payload) (fun i -> payload.[i] = '1') in
            Some (E.Disproved (cex, po))
        | _ -> None
      in
      match verdict with
      | Some verdict ->
          Ok
            (Shard_verdict
               {
                 shard;
                 verdict;
                 wall_s = Option.value ~default:0. (float_member "wall_s" j);
                 conflicts = Option.value ~default:0 (int_member "conflicts" j);
               })
      | None -> Error (Bad "shard-verdict: malformed verdict"))
  | Some "shard-failed", Some shard, Some msg -> Ok (Shard_failed { shard; msg })
  | Some ("shard-verdict" | "shard-failed"), _, _ -> Error (Bad "reply: malformed fields")
  | Some other, _, _ -> Error (Bad ("unknown shard reply " ^ other))
  | None, _, _ -> Error (Bad "missing message type")
