(* The SAT preprocessing pipeline: activity heap, BVE model
   reconstruction, subsumption soundness, XOR/Gauss, probing and
   equivalent literals, cancellation — cross-checked against brute force
   on small random CNFs. *)

let l v = Sat.Solver.mklit v false
let nl v = Sat.Solver.mklit v true

(* --- deterministic random CNFs ------------------------------------------ *)

let mk_rng seed = Sim.Rng.create ~seed:(Int64.of_int (seed + 17))

let bits rng n = Int64.to_int (Sim.Rng.next64 rng) land ((1 lsl n) - 1)

(* A random CNF over [nvars] variables as lists of solver literals. *)
let random_cnf rng ~nvars ~nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + (bits rng 8 mod 4) in
      List.init len (fun _ ->
          let v = bits rng 8 mod nvars in
          if bits rng 1 = 0 then Sat.Solver.mklit v false
          else Sat.Solver.mklit v true))

let lit_true model lit = model.(lit / 2) <> (lit land 1 = 1)

let clause_sat model clause = List.exists (lit_true model) clause

let cnf_sat model cnf = List.for_all (clause_sat model) cnf

(* Brute-force satisfiability of a literal-list CNF. *)
let brute_solutions ~nvars cnf =
  let sols = ref [] in
  for m = 0 to (1 lsl nvars) - 1 do
    let model = Array.init nvars (fun i -> (m lsr i) land 1 = 1) in
    if cnf_sat model cnf then sols := model :: !sols
  done;
  List.rev !sols

(* --- activity heap ------------------------------------------------------ *)

(* Random insert/update/pop trace vs a reference model: every pop must
   return an element of maximum priority, and membership must track. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap matches reference model" ~count:200
    Util.arb_seed (fun seed ->
      let rng = mk_rng seed in
      let n = 24 in
      let prio = Array.init n (fun _ -> float_of_int (bits rng 16)) in
      let less u v = prio.(u) > prio.(v) in
      let h = Sat.Heap.create ~capacity:n () in
      let in_model = Array.make n false in
      let ok = ref true in
      let check b = if not b then ok := false in
      for _ = 1 to 200 do
        let v = bits rng 16 mod n in
        match bits rng 8 mod 4 with
        | 0 ->
            if not in_model.(v) then begin
              Sat.Heap.insert ~less h v;
              in_model.(v) <- true
            end
        | 1 ->
            (* decrease- or increase-key: change priority, re-sift. *)
            prio.(v) <- float_of_int (bits rng 16);
            if in_model.(v) then Sat.Heap.update ~less h v
        | 2 ->
            if Array.exists Fun.id in_model then begin
              let top = Sat.Heap.pop ~less h in
              check in_model.(top);
              Array.iteri
                (fun u inside ->
                  if inside && u <> top then check (prio.(u) <= prio.(top)))
                in_model;
              in_model.(top) <- false
            end
        | _ ->
            check (Sat.Heap.mem h v = in_model.(v));
            check
              (Sat.Heap.size h
              = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_model)
      done;
      (* Draining yields non-increasing priorities. *)
      let last = ref infinity in
      while not (Sat.Heap.is_empty h) do
        let v = Sat.Heap.pop ~less h in
        check (prio.(v) <= !last);
        last := prio.(v)
      done;
      !ok)

(* --- full-pipeline round trip on random CNFs ---------------------------- *)

(* The literals fixing every variable [not eliminated] to its value in
   [model]. *)
let assignment ?(eliminated = [||]) model =
  List.filter_map
    (fun v ->
      if v < Array.length eliminated && eliminated.(v) then None
      else Some (Sat.Solver.mklit v (not model.(v))))
    (List.init (Array.length model) Fun.id)

(* Every assignment over [nvars] variables. *)
let assignments nvars =
  List.init (1 lsl nvars) (fun m -> Array.init nvars (fun i -> (m lsr i) land 1 = 1))

(* Simplify.run must (a) preserve satisfiability and (b) return a
   reconstruction stack that extends any model of the simplified CNF to a
   model of the original one.  The simplified CNF's models are enumerated
   through its solver, assuming each assignment of the variables that
   were not eliminated. *)
let prop_simplify_roundtrip =
  QCheck.Test.make ~name:"simplify round-trip vs brute force" ~count:150
    Util.arb_seed (fun seed ->
      let rng = mk_rng seed in
      let nvars = 4 + (bits rng 8 mod 5) in
      let cnf = random_cnf rng ~nvars ~nclauses:(2 + (bits rng 8 mod 14)) in
      let frozen = List.filter (fun _ -> bits rng 2 = 0) (List.init nvars Fun.id) in
      let r = Sat.Simplify.run ~nvars ~frozen cnf in
      let eliminated = r.Sat.Simplify.eliminated in
      let simp_sols =
        List.filter_map
          (fun m ->
            match
              Sat.Solver.solve ~assumptions:(assignment ~eliminated m)
                r.Sat.Simplify.solver
            with
            | Sat.Solver.Sat -> Some (Sat.Simplify.model r)
            | Sat.Solver.Unsat | Sat.Solver.Unknown -> None)
          (assignments nvars)
      in
      let orig_sols = brute_solutions ~nvars cnf in
      (* Equisatisfiable... *)
      (orig_sols = []) = (simp_sols = [])
      (* ...and every simplified model reconstructs to an original one. *)
      && List.for_all (fun model -> cnf_sat model cnf) simp_sols)

(* Solve a CNF through the preprocessor; the verdict must match brute
   force and the reconstructed model must satisfy every original
   clause. *)
let simplified_verdict_ok ?cancel ~nvars cnf =
  let r = Sat.Simplify.run ?cancel ~nvars ~frozen:[] cnf in
  let brute_sat = brute_solutions ~nvars cnf <> [] in
  match Sat.Solver.solve r.Sat.Simplify.solver with
  | Sat.Solver.Unsat -> not brute_sat
  | Sat.Solver.Unknown -> false
  | Sat.Solver.Sat -> brute_sat && cnf_sat (Sat.Simplify.model r) cnf

let prop_solver_simplify_verdict =
  QCheck.Test.make ~name:"solver simplify: verdict and model vs brute force"
    ~count:150 Util.arb_seed (fun seed ->
      let rng = mk_rng seed in
      let nvars = 4 + (bits rng 8 mod 5) in
      let cnf = random_cnf rng ~nvars ~nclauses:(2 + (bits rng 8 mod 14)) in
      simplified_verdict_ok ~nvars cnf)

(* --- subsumption -------------------------------------------------------- *)

(* With every variable frozen, no variable leaves the formula (no
   elimination, no substitution), so simplification — subsumption and
   self-subsuming resolution, XOR facts, probing — must preserve logical
   equivalence, assignment by assignment. *)
let prop_subsumption_equivalent =
  QCheck.Test.make ~name:"subsumption preserves logical equivalence"
    ~count:150 Util.arb_seed (fun seed ->
      let rng = mk_rng seed in
      let nvars = 4 + (bits rng 8 mod 4) in
      let cnf = random_cnf rng ~nvars ~nclauses:(4 + (bits rng 8 mod 12)) in
      let r = Sat.Simplify.run ~nvars ~frozen:(List.init nvars Fun.id) cnf in
      (not (Array.exists Fun.id r.Sat.Simplify.eliminated))
      && r.Sat.Simplify.recon = []
      && List.for_all
           (fun model ->
             cnf_sat model cnf
             = (Sat.Solver.solve ~assumptions:(assignment model) r.Sat.Simplify.solver
               = Sat.Solver.Sat))
           (assignments nvars))

(* --- XOR extraction and Gaussian elimination ---------------------------- *)

(* CNF encoding of x0 xor x1 xor x2 = rhs: the four clauses with an odd
   (rhs=1) / even (rhs=0) number of negations. *)
let xor3_clauses a b c rhs =
  let combos =
    [ (false, false, false); (false, true, true); (true, false, true); (true, true, false) ]
  in
  List.map
    (fun (sa, sb, sc) ->
      (* clause forbids the assignment where parity is wrong *)
      [ Sat.Solver.mklit a sa; Sat.Solver.mklit b sb; Sat.Solver.mklit c sc ])
    (List.map
       (fun (sa, sb, sc) -> if rhs then (sa, sb, sc) else (not sa, sb, sc))
       combos)

let prop_xor_chain =
  QCheck.Test.make ~name:"xor/gauss solves random parity chains" ~count:100
    Util.arb_seed (fun seed ->
      let rng = mk_rng seed in
      let nvars = 5 + (bits rng 8 mod 4) in
      (* Overlapping 3-var parity constraints over a small pool. *)
      let rows = 3 + (bits rng 8 mod 4) in
      let cnf = ref [] in
      for i = 0 to rows - 1 do
        let a = i mod nvars
        and b = (i + 1) mod nvars
        and c = (i + 2 + (bits rng 8 mod (nvars - 2))) mod nvars in
        if a <> b && b <> c && a <> c then
          cnf := xor3_clauses a b c (bits rng 1 = 1) @ !cnf
      done;
      simplified_verdict_ok ~nvars !cnf)

let test_xor_extract () =
  (* x0^x1^x2 = 1 and x1^x2^x3 = 0, explicitly. *)
  let clauses =
    List.map Array.of_list (xor3_clauses 0 1 2 true @ xor3_clauses 1 2 3 false)
  in
  let rows = Sat.Xor.extract clauses in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Sat.Xor.xor_row) ->
      match r.Sat.Xor.vars with
      | [ 0; 1; 2 ] -> Alcotest.(check bool) "rhs 012" true r.Sat.Xor.rhs
      | [ 1; 2; 3 ] -> Alcotest.(check bool) "rhs 123" false r.Sat.Xor.rhs
      | _ -> Alcotest.fail "unexpected row")
    rows

let test_gauss_unsat () =
  (* a^b^c=0, a^b^d=1, c^d (via c^d^e=0, c^d^e=1) -> contradiction. *)
  let rows =
    [
      { Sat.Xor.vars = [ 0; 1; 2 ]; rhs = false };
      { Sat.Xor.vars = [ 0; 1; 2 ]; rhs = true };
    ]
  in
  match Sat.Xor.eliminate rows with
  | [ Sat.Xor.Unsat ] -> ()
  | _ -> Alcotest.fail "expected Unsat"

(* Gauss-derived unit and equivalence facts must hold in every brute-force
   solution of the parity system. *)
let prop_gauss_facts_sound =
  QCheck.Test.make ~name:"gauss facts hold in every solution" ~count:200
    Util.arb_seed (fun seed ->
      let rng = mk_rng seed in
      let nvars = 4 + (bits rng 8 mod 3) in
      let nrows = 2 + (bits rng 8 mod 4) in
      let rows =
        List.init nrows (fun _ ->
            let arity = 3 + (bits rng 8 mod 2) in
            let vars =
              List.init arity (fun _ -> bits rng 8 mod nvars)
              |> List.sort_uniq compare
            in
            { Sat.Xor.vars; rhs = bits rng 1 = 1 })
        |> List.filter (fun (r : Sat.Xor.xor_row) -> List.length r.Sat.Xor.vars >= 2)
      in
      let row_sat model (r : Sat.Xor.xor_row) =
        List.fold_left (fun p v -> p <> model.(v)) false r.Sat.Xor.vars
        = r.Sat.Xor.rhs
      in
      let sols = ref [] in
      for m = 0 to (1 lsl nvars) - 1 do
        let model = Array.init nvars (fun i -> (m lsr i) land 1 = 1) in
        if List.for_all (row_sat model) rows then sols := model :: !sols
      done;
      let facts = Sat.Xor.eliminate rows in
      if List.mem Sat.Xor.Unsat facts then !sols = []
      else
        List.for_all
          (fun model ->
            List.for_all
              (function
                | Sat.Xor.Unit (v, b) -> model.(v) = b
                | Sat.Xor.Equiv (x, y, odd) -> model.(x) <> model.(y) = odd
                | Sat.Xor.Unsat -> false)
              facts)
          !sols)

(* --- equivalent literals and probing ------------------------------------ *)

let test_elit_substitution () =
  (* a <-> b (binary implication cycle) plus ternary clauses so nothing
     propagates to units before the SCC pass: the equivalence must be
     substituted away and recorded, and any model must still set a = b
     (reconstruction included). *)
  let a = 0 and b = 1 and c = 2 and d = 3 in
  let r =
    Sat.Simplify.run ~nvars:4 ~frozen:[]
      [ [ nl a; l b ]; [ nl b; l a ]; [ l a; l c; l d ]; [ nl c; nl d; l b ] ]
  in
  Alcotest.(check bool) "substitution recorded" true
    (List.exists
       (function Sat.Simplify.R_subst _ -> true | Sat.Simplify.R_clause _ -> false)
       r.Sat.Simplify.recon);
  match Sat.Solver.solve r.Sat.Simplify.solver with
  | Sat.Solver.Sat ->
      let model = Sat.Simplify.model r in
      Alcotest.(check bool) "a = b" model.(a) model.(b)
  | _ -> Alcotest.fail "expected SAT"

let test_probe_failed_literal () =
  (* a -> b, a -> c and (not b or not c): a fails, but no clause pass
     derives (not a) — it takes two resolution steps — so only probing
     can fix it at level 0, where an assumption of a fails without a
     single conflict. *)
  let a = 0 and b = 1 and c = 2 and d = 3 and e = 4 in
  let r =
    Sat.Simplify.run ~nvars:5 ~frozen:[ a; b; c; d; e ]
      [
        [ nl a; l b ];
        [ nl a; l c ];
        [ nl b; nl c; l d ];
        [ nl b; nl c; nl d ];
        [ l a; l d; l e ];
      ]
  in
  let s = r.Sat.Simplify.solver in
  (match Sat.Solver.solve ~assumptions:[ l a ] ~conflict_limit:0 s with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "assuming a must fail at level 0");
  match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
      Alcotest.(check bool) "a false" false (Sat.Solver.model_value s a)
  | _ -> Alcotest.fail "expected SAT"

(* --- cancellation ------------------------------------------------------- *)

(* A token that fires immediately: simplify must return promptly and leave
   an equisatisfiable solver behind (partial simplification is fine, a
   wrong verdict afterwards is not). *)
let prop_cancelled_simplify_sound =
  QCheck.Test.make ~name:"cancelled simplify stays equisatisfiable"
    ~count:100 Util.arb_seed (fun seed ->
      let rng = mk_rng seed in
      let nvars = 4 + (bits rng 8 mod 5) in
      let cnf = random_cnf rng ~nvars ~nclauses:(2 + (bits rng 8 mod 14)) in
      let cancel = Par.Cancel.create () in
      Par.Cancel.set cancel;
      simplified_verdict_ok ~cancel ~nvars cnf)

(* --- frozen variables under assumptions --------------------------------- *)

(* Frozen variables survive simplification and keep working as
   assumptions; non-frozen variables may be eliminated but their model
   values are still reconstructed. *)
let prop_frozen_assumptions =
  QCheck.Test.make ~name:"frozen vars usable as assumptions after simplify"
    ~count:100 Util.arb_seed (fun seed ->
      let rng = mk_rng seed in
      let nvars = 4 + (bits rng 8 mod 4) in
      let cnf = random_cnf rng ~nvars ~nclauses:(2 + (bits rng 8 mod 10)) in
      let fv = bits rng 8 mod nvars in
      let r = Sat.Simplify.run ~nvars ~frozen:[ fv ] cnf in
      (not r.Sat.Simplify.eliminated.(fv))
      &&
      let assumption = Sat.Solver.mklit fv false in
      let with_assumption = [ assumption ] :: cnf in
      let brute_sat = brute_solutions ~nvars with_assumption <> [] in
      match Sat.Solver.solve ~assumptions:[ assumption ] r.Sat.Simplify.solver with
      | Sat.Solver.Unsat -> not brute_sat
      | Sat.Solver.Unknown -> false
      | Sat.Solver.Sat ->
          brute_sat && cnf_sat (Sat.Simplify.model r) with_assumption)

let () =
  Alcotest.run "simplify"
    [
      ( "unit",
        [
          Alcotest.test_case "xor extract" `Quick test_xor_extract;
          Alcotest.test_case "gauss unsat" `Quick test_gauss_unsat;
          Alcotest.test_case "equivalent literals" `Quick test_elit_substitution;
          Alcotest.test_case "failed-literal probing" `Quick test_probe_failed_literal;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heap_model;
            prop_simplify_roundtrip;
            prop_solver_simplify_verdict;
            prop_subsumption_equivalent;
            prop_xor_chain;
            prop_gauss_facts_sound;
            prop_cancelled_simplify_sound;
            prop_frozen_assumptions;
          ] );
    ]
