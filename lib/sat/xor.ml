(* XOR constraint extraction and sparse GF(2) Gaussian elimination.

   A k-ary XOR constraint x1 + x2 + ... + xk = b (sum over GF(2)) is
   encoded in CNF as the 2^(k-1) clauses over {x1..xk} whose number of
   negations has parity 1-b.  Extraction inverts that: group clauses by
   their sorted variable set, check that all groups members share the
   negation parity, and declare the XOR complete once 2^(k-1) distinct
   sign patterns are present.

   Gaussian elimination then combines the recovered rows.  We never delete
   the originating clauses — the linear system is only mined for *facts*
   the CNF solver would need search to find: units (x = b), binary
   equivalences (x = y or x = ¬y), or outright UNSAT (empty row with
   rhs 1).  Facts are returned to the caller; soundness does not depend
   on completeness, so rows that grow beyond [row_cap] variables during
   merging may be dropped. *)

type xor_row = {
  vars : int list;  (* strictly increasing variable ids *)
  rhs : bool;
}

type fact =
  | Unit of int * bool  (* variable, value *)
  | Equiv of int * int * bool  (* x = y xor sign; sign=true means x = ¬y *)
  | Unsat

(* --- extraction ------------------------------------------------------- *)

(* Key a clause by its sorted variable set. *)
let clause_key lits =
  let vars = Array.map (fun l -> l lsr 1) lits in
  Array.sort compare vars;
  vars

let sign_mask lits =
  (* Bit i set iff the literal of the i-th smallest variable is negated. *)
  let k = Array.length lits in
  let order = Array.copy lits in
  Array.sort (fun a b -> compare (a lsr 1) (b lsr 1)) order;
  let m = ref 0 in
  for i = 0 to k - 1 do
    if order.(i) land 1 <> 0 then m := !m lor (1 lsl i)
  done;
  !m

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* Largest XOR arity mined: a k-ary XOR takes 2^(k-1) clauses. *)
let max_arity = 6

(* [extract clauses] scans the clause list (arrays of literals,
   duplicate-free, sorted or not) and returns the complete XOR rows of
   arity [3..max_arity] found.  Arity 2 XORs are just binary equivalences,
   which the equivalent-literal pass already handles. *)
let extract clauses =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun lits ->
      let k = Array.length lits in
      if k >= 3 && k <= max_arity then begin
        let key = clause_key lits in
        (* Duplicate variables would collapse the clause arity; skip. *)
        let distinct = ref true in
        for i = 1 to k - 1 do
          if key.(i) = key.(i - 1) then distinct := false
        done;
        if !distinct then begin
          let mask = sign_mask lits in
          let parity = popcount mask land 1 in
          let entry =
            match Hashtbl.find_opt tbl key with
            | Some e -> e
            | None ->
              let e = (ref parity, Hashtbl.create 8, ref true) in
              Hashtbl.add tbl key e;
              e
          in
          let par, masks, ok = entry in
          if parity <> !par then ok := false else Hashtbl.replace masks mask ()
        end
      end)
    clauses;
  let rows = ref [] in
  Hashtbl.iter
    (fun key (par, masks, ok) ->
      let k = Array.length key in
      if !ok && Hashtbl.length masks = 1 lsl (k - 1) then begin
        (* All clauses have #negations parity p; the constraint is
           x1 + ... + xk = 1 - p. *)
        let rhs = !par = 0 in
        rows := { vars = Array.to_list key; rhs } :: !rows
      end)
    tbl;
  !rows

(* --- GF(2) elimination ------------------------------------------------ *)

let xor_merge a b =
  (* Symmetric difference of two strictly increasing lists. *)
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs, y :: ys ->
      if x = y then go xs ys acc
      else if x < y then go xs b (x :: acc)
      else go a ys (y :: acc)
  in
  go a b []

(* Merged-row growth cap: oversized rows are dropped (sound — we only lose
   derivations). *)
let row_cap = 24

(* Eliminate with pivot = smallest variable of each row.  Returns the facts
   implied by the system. *)
let eliminate rows =
  let pivots : (int, xor_row) Hashtbl.t = Hashtbl.create 64 in
  let facts = ref [] in
  let unsat = ref false in
  let rec insert row =
    if not !unsat then
      match row.vars with
      | [] -> if row.rhs then begin
          unsat := true;
          facts := [ Unsat ]
        end
      | [ v ] -> begin
          facts := Unit (v, row.rhs) :: !facts;
          (* Substitute into elimination as the row v = rhs. *)
          match Hashtbl.find_opt pivots v with
          | Some r ->
            Hashtbl.remove pivots v;
            insert { vars = xor_merge row.vars r.vars; rhs = row.rhs <> r.rhs }
          | None -> Hashtbl.add pivots v row
        end
      | [ x; y ] -> begin
          facts := Equiv (x, y, row.rhs) :: !facts;
          match Hashtbl.find_opt pivots x with
          | Some r ->
            insert { vars = xor_merge row.vars r.vars; rhs = row.rhs <> r.rhs }
          | None -> Hashtbl.add pivots x row
        end
      | p :: _ -> (
        match Hashtbl.find_opt pivots p with
        | Some r ->
          let merged = { vars = xor_merge row.vars r.vars; rhs = row.rhs <> r.rhs } in
          if List.length merged.vars <= row_cap then insert merged
        | None -> Hashtbl.add pivots p row)
  in
  List.iter
    (fun row ->
      (* Normalise: strictly increasing vars assumed; drop empty true rows. *)
      insert row)
    rows;
  if !unsat then [ Unsat ] else !facts
