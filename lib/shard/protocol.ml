(* Wire protocol: 4-byte big-endian header length, then that many bytes
   of JSON (the hand-rolled [Simsweep.Telemetry] flavour), then an
   optional raw binary trailer whose size the header carries as
   ["payload_len"].  Bulk bytes — AIGER images and counter-example bit
   strings — ride the trailer: written and read with exactly one copy
   and zero JSON escaping.  After the worker's opening [Shard_ready],
   each [Shard_check] frame yields exactly one reply frame, in order. *)

type json = Simsweep.Telemetry.json
type io = Simsweep.Telemetry.io

(* A frame larger than this is a protocol error, not an allocation.
   Shards are planned far below it; [set_max_frame] lowers it so the
   boundary can be tested without 256 MB frames. *)
let default_max_frame = 256 * 1024 * 1024
let min_max_frame = 64 * 1024
let max_frame_cap = Atomic.make default_max_frame
let max_frame () = Atomic.get max_frame_cap
let set_max_frame n = Atomic.set max_frame_cap (max min_max_frame n)

type incoming = { hdr : json; payload : string }

open Simsweep.Telemetry

let str_field name j =
  match member name j with
  | Some (String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S: expected a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

(* {2 Shard frames}

   Coordinator <-> worker messages for multi-process sharded sweeping.
   AIGER payloads travel as the binary trailer; counter-examples are
   '0'/'1' strings in the trailer. *)

type shard_task =
  | Shard_check of {
      shard : int;
      aiger : string;
      deadline_in : float option;
    }
  | Shard_quit

type shard_verdict =
  | Sv_proved
  | Sv_disproved of { cex : string; po : int }
  | Sv_undecided

type shard_reply =
  | Shard_ready
  | Shard_verdict of {
      shard : int;
      verdict : shard_verdict;
      wall_s : float;
      conflicts : int;
    }
  | Shard_failed of { shard : int; msg : string }

let cex_to_bits cex =
  String.init (Array.length cex) (fun i -> if cex.(i) then '1' else '0')

let bits_to_cex s = Array.init (String.length s) (fun i -> s.[i] = '1')

let shard_task_to_frame = function
  | Shard_check { shard; aiger; deadline_in } ->
      ( Obj
          ([ ("type", String "shard-check"); ("shard", Int shard) ]
          @
          match deadline_in with
          | Some s -> [ ("deadline_in", Float s) ]
          | None -> []),
        aiger )
  | Shard_quit -> (Obj [ ("type", String "shard-quit") ], "")

let shard_task_of_frame { hdr = j; payload } =
  match str_field "type" j with
  | Error e -> Error e
  | Ok "shard-check" -> (
      match int_member "shard" j with
      | Some shard when payload <> "" ->
          Ok
            (Shard_check
               {
                 shard;
                 aiger = payload;
                 deadline_in = float_member "deadline_in" j;
               })
      | Some _ -> Error "shard-check: missing aiger"
      | None -> Error "shard-check: missing shard id")
  | Ok "shard-quit" -> Ok Shard_quit
  | Ok other -> Error ("unknown shard task " ^ other)

(* Verdict tag in the header; a disproof's CEX bits in the trailer. *)
let shard_verdict_to_frame = function
  | Sv_proved -> ([ ("verdict", String "proved") ], "")
  | Sv_disproved { cex; po } ->
      ([ ("verdict", String "disproved"); ("po", Int po) ], cex)
  | Sv_undecided -> ([ ("verdict", String "undecided") ], "")

let shard_verdict_of_frame { hdr = j; payload } =
  match string_member "verdict" j with
  | Some "proved" -> Ok Sv_proved
  | Some "disproved" -> (
      match int_member "po" j with
      | Some po -> Ok (Sv_disproved { cex = payload; po })
      | None -> Error "disproved verdict: missing po")
  | Some "undecided" -> Ok Sv_undecided
  | _ -> Error "missing verdict"

let shard_reply_to_frame = function
  | Shard_ready -> (Obj [ ("type", String "shard-ready") ], "")
  | Shard_verdict { shard; verdict; wall_s; conflicts } ->
      let verdict_fields, payload = shard_verdict_to_frame verdict in
      ( Obj
          ([
             ("type", String "shard-verdict");
             ("shard", Int shard);
             ("wall_s", Float wall_s);
             ("conflicts", Int conflicts);
           ]
          @ verdict_fields),
        payload )
  | Shard_failed { shard; msg } ->
      ( Obj
          [
            ("type", String "shard-failed");
            ("shard", Int shard);
            ("msg", String msg);
          ],
        "" )

let shard_reply_of_frame ({ hdr = j; _ } as inc) =
  match str_field "type" j with
  | Error e -> Error e
  | Ok "shard-ready" -> Ok Shard_ready
  | Ok "shard-verdict" -> (
      match (int_member "shard" j, shard_verdict_of_frame inc) with
      | Some shard, Ok verdict ->
          Ok
            (Shard_verdict
               {
                 shard;
                 verdict;
                 wall_s = Option.value ~default:0. (float_member "wall_s" j);
                 conflicts = Option.value ~default:0 (int_member "conflicts" j);
               })
      | None, _ -> Error "shard-verdict: missing shard id"
      | _, Error e -> Error e)
  | Ok "shard-failed" -> (
      match (int_member "shard" j, string_member "msg" j) with
      | Some shard, Some msg -> Ok (Shard_failed { shard; msg })
      | _ -> Error "shard-failed: malformed fields")
  | Ok other -> Error ("unknown shard reply " ^ other)

(* {2 Framing} *)

let count_tx (io : io option) bytes =
  match io with
  | Some io ->
      io.io_bytes_tx <- io.io_bytes_tx + bytes;
      io.io_frames_tx <- io.io_frames_tx + 1
  | None -> ()

let write_frame ?io ?(payload = "") oc (j : json) =
  let plen = String.length payload in
  let j =
    if plen = 0 then j
    else
      match j with
      | Obj fields -> Obj (fields @ [ ("payload_len", Int plen) ])
      | _ -> invalid_arg "Protocol.write_frame: payload on a non-object header"
  in
  let body = to_string j in
  let n = String.length body in
  if n + plen > max_frame () then
    invalid_arg "Protocol.write_frame: frame too large";
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  output_bytes oc hdr;
  output_string oc body;
  if plen > 0 then output_string oc payload;
  count_tx io (4 + n + plen);
  Stdlib.flush oc

let really_read ic buf len =
  let off = ref 0 in
  (try
     while !off < len do
       let r = input ic buf !off (len - !off) in
       if r = 0 then raise End_of_file;
       off := !off + r
     done
     (* A peer that died (SIGKILLed shard worker, reset client socket)
        surfaces as [Sys_error] rather than a clean EOF — same outcome
        for the reader: the frame is not coming. *)
   with End_of_file | Sys_error _ -> ());
  !off = len

let read_frame ?io ic : (incoming, string) result =
  let count_rx bytes =
    match io with
    | Some io ->
        io.io_bytes_rx <- io.io_bytes_rx + bytes;
        io.io_frames_rx <- io.io_frames_rx + 1
    | None -> ()
  in
  let hdr = Bytes.create 4 in
  if not (really_read ic hdr 4) then Error "eof"
  else
    let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if n < 0 || n > max_frame () then
      Error (Printf.sprintf "bad frame length %d" n)
    else
      let body = Bytes.create n in
      if not (really_read ic body n) then Error "eof inside frame"
      else
        match parse (Bytes.to_string body) with
        | Error e -> Error ("bad frame json: " ^ e)
        | Ok j -> (
            match Option.value ~default:0 (int_member "payload_len" j) with
            | 0 ->
                count_rx (4 + n);
                Ok { hdr = j; payload = "" }
            | plen when plen < 0 || n + plen > max_frame () ->
                Error (Printf.sprintf "bad payload length %d" plen)
            | plen ->
                let p = Bytes.create plen in
                if not (really_read ic p plen) then Error "eof inside payload"
                else begin
                  count_rx (4 + n + plen);
                  Ok { hdr = j; payload = Bytes.unsafe_to_string p }
                end)
