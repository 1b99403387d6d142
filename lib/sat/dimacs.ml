(* DIMACS separates tokens with any whitespace run — spaces, tabs, and the
   CR left on every line of a CRLF file. *)
let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun w -> w <> "")

let parse text =
  let lines = String.split_on_char '\n' text in
  let nvars = ref (-1) in
  let nclauses = ref (-1) in
  let clauses = ref [] in
  let current = ref [] in
  let error = ref None in
  let fail m = if !error = None then error := Some m in
  List.iter
    (fun line ->
      let line = String.trim line in
      if !error <> None || line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        match tokens line with
        | [ "p"; "cnf"; v; c ] -> (
            match (int_of_string_opt v, int_of_string_opt c) with
            | Some v, Some c when v >= 0 && c >= 0 ->
                nvars := v;
                nclauses := c
            | _ -> fail "bad p line")
        | _ -> fail "bad p line"
      end
      else if !nvars < 0 then fail "clause before p line"
      else
        tokens line
        |> List.iter (fun w ->
               match int_of_string_opt w with
               | None -> fail ("bad literal " ^ w)
               | Some 0 ->
                   clauses := List.rev !current :: !clauses;
                   current := []
               | Some l ->
                   if abs l > !nvars then fail ("literal out of range " ^ w)
                   else current := l :: !current))
    lines;
  match !error with
  | Some e -> Error e
  | None ->
      if !nvars < 0 then Error "missing p line"
      else begin
        if !current <> [] then clauses := List.rev !current :: !clauses;
        Ok (!nvars, List.rev !clauses)
      end

let to_string ~nvars clauses =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" nvars (List.length clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) clause;
      Buffer.add_string buf "0\n")
    clauses;
  Buffer.contents buf

let cnf text =
  Result.map
    (fun (nvars, clauses) ->
      (nvars, List.map (List.map (fun l -> Solver.mklit (abs l - 1) (l < 0))) clauses))
    (parse text)

let load solver text =
  Result.map
    (fun (nvars, clauses) ->
      for _ = 1 to nvars do
        ignore (Solver.new_var solver)
      done;
      List.for_all (Solver.add_clause solver) clauses)
    (cnf text)

let of_miter g =
  (* Node i maps to DIMACS variable i+1. *)
  let dlit l =
    let v = Solver.var_of_lit l + 1 in
    if l land 1 = 1 then -v else v
  in
  let clauses = ref [] in
  Cnf.iter_clauses g (fun c -> clauses := List.map dlit c :: !clauses);
  (* Some output must be set: UNSAT iff the miter is proved. *)
  let outputs = Array.map (fun l -> dlit (Cnf.lit l)) (Aig.Network.pos g) in
  to_string ~nvars:(Aig.Network.num_nodes g) (List.rev (Array.to_list outputs :: !clauses))
