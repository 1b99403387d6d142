(* Structured telemetry: a minimal JSON layer (hand-rolled, no external
   dependency, like the rest of the code base) plus builders that flatten
   the engines' mutable stat records into JSON snapshots. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* --- printing ------------------------------------------------------------ *)

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_to_string f =
  (* JSON has no representation for non-finite numbers. *)
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else
    let s = Printf.sprintf "%.17g" f in
    (* Shortest representation that round-trips. *)
    let short = Printf.sprintf "%.12g" f in
    let s = if float_of_string short = f then short else s in
    (* Keep floats recognisable as floats. *)
    if
      String.contains s '.' || String.contains s 'e' || String.contains s 'n'
      || String.contains s 'i'
    then s
    else s ^ ".0"

let rec print_to buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s ->
      Buffer.add_char buf '"';
      escape_to buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          print_to buf ~indent ~level:(level + 1) item)
        items;
      nl ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          Buffer.add_char buf '"';
          escape_to buf k;
          Buffer.add_string buf (if indent then "\": " else "\":");
          print_to buf ~indent ~level:(level + 1) item)
        fields;
      nl ();
      pad level;
      Buffer.add_char buf '}'

let to_string ?(indent = false) v =
  let buf = Buffer.create 1024 in
  print_to buf ~indent ~level:0 v;
  Buffer.contents buf

let write_file file v =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ~indent:true v);
      output_char oc '\n')

(* --- parsing ------------------------------------------------------------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> fail "bad \\u escape"
  in
  let utf8_add buf c =
    (* Encode a Unicode scalar value as UTF-8. *)
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (c lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (c lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   utf8_add buf (parse_hex4 ())
               | _ -> fail "unknown escape");
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if
      String.contains tok '.' || String.contains tok 'e'
      || String.contains tok 'E'
    then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* Typed field accessors, shared by every hand-rolled wire codec (the
   shard coordinator frames, the bench readers).
   Numeric accessors accept both numeric shapes: a float that happens to
   be integral serialises as an [Int] and must still read back. *)

let int_member key j =
  match member key j with
  | Some (Int n) -> Some n
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let float_member key j =
  match member key j with
  | Some (Float f) -> Some f
  | Some (Int n) -> Some (float_of_int n)
  | _ -> None

let string_member key j =
  match member key j with Some (String s) -> Some s | _ -> None

let list_member key j =
  match member key j with Some (List l) -> Some l | _ -> None

(* --- stat snapshots ------------------------------------------------------ *)

let of_exhaustive (s : Exhaustive.stats) =
  Obj
    [
      ("windows", Int s.windows);
      ("small_windows", Int s.small_windows);
      ("nodes_simulated", Int s.nodes_simulated);
      ("words_computed", Int s.words_computed);
      ("rounds", Int s.rounds);
      ("arena_hwm_words", Int s.arena_hwm_words);
      ("arena_grows", Int s.arena_grows);
    ]

let of_psim (s : Sim.Psim.stats) =
  Obj
    [
      ("runs", Int s.runs);
      ("level_batches", Int s.level_batches);
      ("node_words", Int s.node_words);
      ("patterns_embedded", Int s.patterns_embedded);
    ]

let of_pool (s : Par.Pool.stats) =
  let int_list a = List (Array.to_list (Array.map (fun c -> Int c) a)) in
  Obj
    [
      ("jobs", Int s.jobs);
      ("seq_jobs", Int s.seq_jobs);
      ("items", Int s.items);
      ("barrier_wait_s", Float s.barrier_wait);
      ("chunks_per_worker", int_list s.chunks_per_worker);
      ("steals", int_list s.steals);
      ("regions", Int s.regions);
      ("region_jobs", Int s.region_jobs);
    ]

let of_sat (s : Sat.Sweep.stats) =
  Obj
    [
      ("sat_calls", Int s.sat_calls);
      ("sat_unsat", Int s.sat_unsat);
      ("sat_sat", Int s.sat_sat);
      ("sat_unknown", Int s.sat_unknown);
      ("conflicts", Int s.conflicts);
      ("candidates", Int s.candidates);
      ("merged", Int s.merged);
      ("rounds", Int s.rounds);
      ("cex_count", Int s.cex_count);
      ("cnf_loads", Int s.cnf_loads);
      ("restarts", Int s.restarts);
      ("reduce_dbs", Int s.reduce_dbs);
      ("learnts_removed", Int s.learnts_removed);
    ]

let of_engine_stats (s : Stats.t) =
  Obj
    [
      ("time_p_s", Float s.time_p);
      ("time_g_s", Float s.time_g);
      ("time_l_s", Float s.time_l);
      ("pos_proved", Int s.pos_proved);
      ("pairs_proved_global", Int s.pairs_proved_global);
      ("pairs_proved_local", Int s.pairs_proved_local);
      ("cex_found", Int s.cex_found);
      ("local_phases", Int s.local_phases);
      ("local_pairs_tried", Int s.local_pairs_tried);
      ("local_cuts_checked", Int s.local_cuts_checked);
      ("g_iterations", Int s.g_iterations);
      ("g_candidates", Int s.g_candidates);
      ("g_refinements", Int s.g_refinements);
      ("cancelled", Bool s.cancelled);
      ("exhaustive", of_exhaustive s.exhaustive);
      ("psim", of_psim s.psim);
    ]

let outcome_string = function
  | Engine.Proved -> "equivalent"
  | Engine.Disproved _ -> "not_equivalent"
  | Engine.Undecided -> "undecided"

let of_run (r : Engine.run_result) =
  Obj
    [
      ("outcome", String (outcome_string r.outcome));
      ("initial_size", Int r.initial_size);
      ("reduced_size", Int r.reduced_size);
      ("reduction_percent", Float (Engine.reduction_percent r));
      ("stats", of_engine_stats r.stats);
    ]

let of_combined (c : Engine.combined) =
  Obj
    [
      ("outcome", String (outcome_string c.final));
      ("engine", of_run c.engine);
      ( "sat_fallback",
        match c.sat_stats with None -> Null | Some s -> of_sat s );
    ]

let of_portfolio (r : Portfolio.result) =
  Obj
    [
      ("outcome", String (outcome_string r.Portfolio.outcome));
      ( "winner",
        match r.Portfolio.winner with
        | Some w -> String (Portfolio.engine_name w)
        | None -> Null );
      ("time_s", Float r.Portfolio.time);
      ( "per_engine_time_s",
        Obj
          (List.map
             (fun (e, t) -> (Portfolio.engine_name e, Float t))
             r.Portfolio.per_engine_time) );
      ("bdd_timeout", Bool r.Portfolio.bdd_timeout);
      ( "engine_stats",
        match r.Portfolio.engine_stats with
        | Some s -> of_engine_stats s
        | None -> Null );
      ( "sat_stats",
        match r.Portfolio.sat_stats with Some s -> of_sat s | None -> Null );
    ]
