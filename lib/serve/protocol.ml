(* Wire protocol: 4-byte big-endian header length, then that many bytes
   of JSON (the hand-rolled [Simsweep.Telemetry] flavour), then an
   optional raw binary trailer whose size the header carries as
   ["payload_len"].  Bulk bytes — AIGER images, counter-example bit
   strings, learnt-clause blocks — ride the trailer: written and read
   with exactly one copy and zero JSON escaping.  One request frame
   yields exactly one response frame, in order, per connection. *)

type json = Simsweep.Telemetry.json
type io = Simsweep.Telemetry.io

(* A frame larger than this is a protocol error, not an allocation.  The
   cap is configurable (server config, --max-frame-mb): the old fixed
   256 MB constant was a silent ceiling on shard payload size once
   --post-double started producing multi-MB miters. *)
let default_max_frame = 256 * 1024 * 1024
let min_max_frame = 64 * 1024
let max_frame_cap = Atomic.make default_max_frame
let max_frame () = Atomic.get max_frame_cap
let set_max_frame n = Atomic.set max_frame_cap (max min_max_frame n)

type incoming = { hdr : json; payload : string }

type request =
  | Ping
  | Script of { script : string; timeout_s : float option }
  | Cec of { aiger : string; engine : string; timeout_s : float option }
  | Cache_stats

type response = {
  ok : bool;
  output : string;  (* printable output, or the error message *)
  cache_hits : int;
  cache_misses : int;
  elapsed_s : float;
}

let error_response ?(elapsed_s = 0.) msg =
  { ok = false; output = msg; cache_hits = 0; cache_misses = 0; elapsed_s }

open Simsweep.Telemetry

let timeout_field = function
  | Some s -> [ ("timeout_s", Float s) ]
  | None -> []

let request_to_frame = function
  | Ping -> (Obj [ ("type", String "ping") ], "")
  | Script { script; timeout_s } ->
      ( Obj
          ([ ("type", String "script"); ("script", String script) ]
          @ timeout_field timeout_s),
        "" )
  | Cec { aiger; engine; timeout_s } ->
      (* The AIGER image travels as the binary trailer. *)
      ( Obj
          ([ ("type", String "cec"); ("engine", String engine) ]
          @ timeout_field timeout_s),
        aiger )
  | Cache_stats -> (Obj [ ("type", String "cache-stats") ], "")

let str_field name j =
  match member name j with
  | Some (String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S: expected a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let timeout_of j =
  match member "timeout_s" j with
  | Some (Float s) -> Some s
  | Some (Int s) -> Some (float_of_int s)
  | _ -> None

let request_of_frame { hdr = j; payload } =
  match str_field "type" j with
  | Error e -> Error e
  | Ok "ping" -> Ok Ping
  | Ok "script" -> (
      match str_field "script" j with
      | Ok script -> Ok (Script { script; timeout_s = timeout_of j })
      | Error e -> Error e)
  | Ok "cec" -> (
      match str_field "engine" j with
      | Ok engine -> Ok (Cec { aiger = payload; engine; timeout_s = timeout_of j })
      | Error e -> Error e)
  | Ok "cache-stats" -> Ok Cache_stats
  | Ok other -> Error ("unknown request type " ^ other)

let response_to_json r =
  Obj
    [
      ("ok", Bool r.ok);
      ("output", String r.output);
      ("cache_hits", Int r.cache_hits);
      ("cache_misses", Int r.cache_misses);
      ("elapsed_s", Float r.elapsed_s);
    ]

let response_of_json j =
  match (bool_member "ok" j, string_member "output" j) with
  | Some ok, Some output ->
      let int_field name = Option.value ~default:0 (int_member name j) in
      Ok
        {
          ok;
          output;
          cache_hits = int_field "cache_hits";
          cache_misses = int_field "cache_misses";
          elapsed_s = Option.value ~default:0. (float_member "elapsed_s" j);
        }
  | _ -> Error "malformed response (missing ok/output)"

(* {2 Shard frames}

   Coordinator <-> worker messages for multi-process sharded sweeping
   (lib/shard).  Same framing and JSON flavour as the daemon protocol.
   AIGER payloads travel as the binary trailer; counter-examples are
   '0'/'1' strings in the trailer; learnt-clause blocks are little-endian
   int32 runs in the trailer.  Literals and variables are the SAT
   solver's integer encoding — stable across processes because
   [Sat.Cnf.load] maps network node [n] to variable [n] and both sides
   decode the same AIGER bytes. *)

type shard_task =
  | Shard_check of {
      run : int;
      shard : int;
      aiger : string;
      stall_conflicts : int;
      split_vars : int;
      direct_sat : bool;
      deadline_in : float option;
    }
  | Shard_cube of {
      run : int;
      shard : int;
      cube : int;
      aiger : string option;  (* cube formula; omitted when already loaded *)
      assume : int list;  (* solver literals fixing this cube *)
      freeze : int list;  (* vars the worker must keep assumable *)
      conflict_limit : int;
      deadline_in : float option;
    }
  | Shard_clauses of {
      run : int;
      shard : int;
      clauses : int list list;  (* shared learnt clauses to import *)
    }
  | Shard_ping
  | Shard_quit

type shard_verdict =
  | Sv_proved
  | Sv_disproved of { cex : string; po : int }
  | Sv_undecided

type cube_result =
  | Cube_unsat
  | Cube_sat of { cex : string; po : int }
  | Cube_unknown

type shard_reply =
  | Shard_ready
  | Shard_pong
  | Shard_verdict of {
      shard : int;
      verdict : shard_verdict;
      wall_s : float;
      conflicts : int;
    }
  | Shard_stalled of {
      shard : int;
      reduced : string;  (* engine-reduced miter: the cube formula *)
      vars : int list;  (* high-activity split candidates, hottest first *)
      wall_s : float;
    }
  | Shard_cube_reply of {
      shard : int;
      cube : int;
      result : cube_result;
      learnt : int list list;  (* short learnt clauses for the pool *)
      conflicts : int;
      wall_s : float;
    }
  | Shard_failed of { shard : int; cube : int option; msg : string }

let cex_to_bits cex =
  String.init (Array.length cex) (fun i -> if cex.(i) then '1' else '0')

let bits_to_cex s = Array.init (String.length s) (fun i -> s.[i] = '1')

let ints_to_json l = List (List.map (fun i -> Int i) l)

let ints_of_json = function
  | List l ->
      List.fold_right
        (fun x acc ->
          match (x, acc) with Int i, Some r -> Some (i :: r) | _ -> None)
        l (Some [])
  | _ -> None

(* Learnt-clause block: [count, (len, lits...)*] as little-endian int32. *)
let clauses_to_payload cs =
  let words = List.fold_left (fun a c -> a + 1 + List.length c) 1 cs in
  let b = Bytes.create (4 * words) in
  let w = ref 0 in
  let put v =
    Bytes.set_int32_le b (4 * !w) (Int32.of_int v);
    incr w
  in
  put (List.length cs);
  List.iter
    (fun c ->
      put (List.length c);
      List.iter put c)
    cs;
  Bytes.unsafe_to_string b

let clauses_of_payload s =
  let words = String.length s / 4 in
  if String.length s <> 4 * words then Error "clause block: ragged length"
  else if words = 0 then Error "clause block: empty"
  else begin
    let get w = Int32.to_int (String.get_int32_le s (4 * w)) in
    let count = get 0 in
    let pos = ref 1 in
    let rec clauses n acc =
      if n = 0 then
        if !pos = words then Ok (List.rev acc)
        else Error "clause block: trailing garbage"
      else if !pos >= words then Error "clause block: truncated"
      else begin
        let len = get !pos in
        incr pos;
        if len < 0 || !pos + len > words then Error "clause block: truncated"
        else begin
          let c = List.init len (fun i -> get (!pos + i)) in
          pos := !pos + len;
          clauses (n - 1) (c :: acc)
        end
      end
    in
    if count < 0 then Error "clause block: negative count" else clauses count []
  end

let deadline_field = function
  | Some s -> [ ("deadline_in", Float s) ]
  | None -> []

let deadline_of j = float_member "deadline_in" j

let shard_task_to_frame = function
  | Shard_check
      { run; shard; aiger; stall_conflicts; split_vars; direct_sat; deadline_in }
    ->
      ( Obj
          ([
             ("type", String "shard-check");
             ("run", Int run);
             ("shard", Int shard);
             ("stall_conflicts", Int stall_conflicts);
             ("split_vars", Int split_vars);
             ("direct_sat", Bool direct_sat);
           ]
          @ deadline_field deadline_in),
        aiger )
  | Shard_cube
      { run; shard; cube; aiger; assume; freeze; conflict_limit; deadline_in }
    ->
      ( Obj
          ([
             ("type", String "shard-cube");
             ("run", Int run);
             ("shard", Int shard);
             ("cube", Int cube);
             ("assume", ints_to_json assume);
             ("freeze", ints_to_json freeze);
             ("conflict_limit", Int conflict_limit);
           ]
          @ deadline_field deadline_in),
        Option.value ~default:"" aiger )
  | Shard_clauses { run; shard; clauses } ->
      ( Obj
          [
            ("type", String "shard-clauses");
            ("run", Int run);
            ("shard", Int shard);
          ],
        clauses_to_payload clauses )
  | Shard_ping -> (Obj [ ("type", String "shard-ping") ], "")
  | Shard_quit -> (Obj [ ("type", String "shard-quit") ], "")

(* An empty trailer on a cube means "no AIGER in this frame": the worker
   already holds the cube formula. *)
let shard_task_of_frame { hdr = j; payload } =
  match str_field "type" j with
  | Error e -> Error e
  | Ok "shard-check" -> (
      match int_member "shard" j with
      | Some shard when payload <> "" ->
          Ok
            (Shard_check
               {
                 run = Option.value ~default:0 (int_member "run" j);
                 shard;
                 aiger = payload;
                 stall_conflicts =
                   Option.value ~default:max_int (int_member "stall_conflicts" j);
                 split_vars = Option.value ~default:0 (int_member "split_vars" j);
                 direct_sat =
                   Option.value ~default:false (bool_member "direct_sat" j);
                 deadline_in = deadline_of j;
               })
      | Some _ -> Error "shard-check: missing aiger"
      | None -> Error "shard-check: missing shard id")
  | Ok "shard-cube" -> (
      match
        ( int_member "shard" j,
          int_member "cube" j,
          Option.bind (member "assume" j) ints_of_json )
      with
      | Some shard, Some cube, Some assume ->
          Ok
            (Shard_cube
               {
                 run = Option.value ~default:0 (int_member "run" j);
                 shard;
                 cube;
                 aiger = (if payload = "" then None else Some payload);
                 assume;
                 freeze =
                   Option.value ~default:[]
                     (Option.bind (member "freeze" j) ints_of_json);
                 conflict_limit =
                   Option.value ~default:max_int (int_member "conflict_limit" j);
                 deadline_in = deadline_of j;
               })
      | _ -> Error "shard-cube: malformed fields")
  | Ok "shard-clauses" -> (
      match (int_member "shard" j, clauses_of_payload payload) with
      | Some shard, Ok clauses ->
          Ok
            (Shard_clauses
               {
                 run = Option.value ~default:0 (int_member "run" j);
                 shard;
                 clauses;
               })
      | None, _ -> Error "shard-clauses: missing shard id"
      | _, Error e -> Error e)
  | Ok "shard-ping" -> Ok Shard_ping
  | Ok "shard-quit" -> Ok Shard_quit
  | Ok other -> Error ("unknown shard task " ^ other)

(* Verdict/result tags in the header; the bulk (CEX bits, learnt-clause
   block) in the trailer.  A frame has one trailer, so [Cube_sat] carries
   the CEX there and ships no learnt clauses — the coordinator stops the
   run on a disproof anyway. *)
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

let cube_result_to_frame = function
  | Cube_unsat -> ([ ("result", String "unsat") ], None)
  | Cube_sat { cex; po } -> ([ ("result", String "sat"); ("po", Int po) ], Some cex)
  | Cube_unknown -> ([ ("result", String "unknown") ], None)

let cube_result_of_frame { hdr = j; payload } =
  match string_member "result" j with
  | Some "unsat" -> Ok Cube_unsat
  | Some "sat" -> (
      match int_member "po" j with
      | Some po -> Ok (Cube_sat { cex = payload; po })
      | None -> Error "sat cube: missing po")
  | Some "unknown" -> Ok Cube_unknown
  | _ -> Error "missing cube result"

let shard_reply_to_frame = function
  | Shard_ready -> (Obj [ ("type", String "shard-ready") ], "")
  | Shard_pong -> (Obj [ ("type", String "shard-pong") ], "")
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
  | Shard_stalled { shard; reduced; vars; wall_s } ->
      ( Obj
          [
            ("type", String "shard-stalled");
            ("shard", Int shard);
            ("vars", ints_to_json vars);
            ("wall_s", Float wall_s);
          ],
        reduced )
  | Shard_cube_reply { shard; cube; result; learnt; conflicts; wall_s } ->
      let result_fields, cex = cube_result_to_frame result in
      let payload =
        match cex with Some cex -> cex | None -> clauses_to_payload learnt
      in
      ( Obj
          ([
             ("type", String "shard-cube-reply");
             ("shard", Int shard);
             ("cube", Int cube);
             ("conflicts", Int conflicts);
             ("wall_s", Float wall_s);
           ]
          @ result_fields),
        payload )
  | Shard_failed { shard; cube; msg } ->
      ( Obj
          ([
             ("type", String "shard-failed");
             ("shard", Int shard);
             ("msg", String msg);
           ]
          @ match cube with Some c -> [ ("cube", Int c) ] | None -> []),
        "" )

let shard_reply_of_frame ({ hdr = j; payload } as inc) =
  match str_field "type" j with
  | Error e -> Error e
  | Ok "shard-ready" -> Ok Shard_ready
  | Ok "shard-pong" -> Ok Shard_pong
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
  | Ok "shard-stalled" -> (
      match (int_member "shard" j, Option.bind (member "vars" j) ints_of_json) with
      | Some shard, Some vars ->
          Ok
            (Shard_stalled
               {
                 shard;
                 reduced = payload;
                 vars;
                 wall_s = Option.value ~default:0. (float_member "wall_s" j);
               })
      | _ -> Error "shard-stalled: malformed fields")
  | Ok "shard-cube-reply" -> (
      match
        (int_member "shard" j, int_member "cube" j, cube_result_of_frame inc)
      with
      | Some shard, Some cube, Ok result ->
          let learnt =
            match result with
            | Cube_sat _ -> Ok []
            | _ -> clauses_of_payload payload
          in
          (match learnt with
          | Error e -> Error ("shard-cube-reply: " ^ e)
          | Ok learnt ->
              Ok
                (Shard_cube_reply
                   {
                     shard;
                     cube;
                     result;
                     learnt;
                     conflicts = Option.value ~default:0 (int_member "conflicts" j);
                     wall_s = Option.value ~default:0. (float_member "wall_s" j);
                   }))
      | _, _, Error e -> Error e
      | _ -> Error "shard-cube-reply: malformed fields")
  | Ok "shard-failed" -> (
      match (int_member "shard" j, string_member "msg" j) with
      | Some shard, Some msg ->
          Ok (Shard_failed { shard; cube = int_member "cube" j; msg })
      | _ -> Error "shard-failed: malformed fields")
  | Ok other -> Error ("unknown shard reply " ^ other)

(* {2 Framing} *)

let count_tx (io : io option) bytes =
  match io with
  | Some io ->
      io.io_bytes_tx <- io.io_bytes_tx + bytes;
      io.io_frames_tx <- io.io_frames_tx + 1
  | None -> ()

let count_flush (io : io option) =
  match io with Some io -> io.io_flushes <- io.io_flushes + 1 | None -> ()

let write_frame ?(flush = true) ?io ?(payload = "") oc (j : json) =
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
  if flush then begin
    Stdlib.flush oc;
    count_flush io
  end

let flush_frames ?io oc =
  Stdlib.flush oc;
  count_flush io

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
