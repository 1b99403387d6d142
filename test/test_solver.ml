(* CDCL SAT solver: unit cases, cross-check against brute force, classic
   hard instances, assumptions and conflict limits. *)

let l v = Sat.Solver.mklit v false
let nl v = Sat.Solver.mklit v true

let test_basic_sat () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s and b = Sat.Solver.new_var s in
  assert (Sat.Solver.add_clause s [ l a; l b ]);
  assert (Sat.Solver.add_clause s [ nl a; l b ]);
  assert (Sat.Solver.add_clause s [ l a; nl b ]);
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat -> ()
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "a" true (Sat.Solver.model_value s a);
  Alcotest.(check bool) "b" true (Sat.Solver.model_value s b);
  (* Adding the blocking clause makes it UNSAT. *)
  ignore (Sat.Solver.add_clause s [ nl a; nl b ]);
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_empty_and_unit () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  Alcotest.(check bool) "unit ok" true (Sat.Solver.add_clause s [ l a ]);
  Alcotest.(check bool) "conflicting unit" false (Sat.Solver.add_clause s [ nl a ]);
  Alcotest.(check bool) "now unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_tautology () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  Alcotest.(check bool) "taut" true (Sat.Solver.add_clause s [ l a; nl a ]);
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat)

let pigeonhole pigeons holes =
  let s = Sat.Solver.create () in
  let x = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    ignore (Sat.Solver.add_clause s (List.init holes (fun h -> l x.(p).(h))))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        ignore (Sat.Solver.add_clause s [ nl x.(p1).(h); nl x.(p2).(h) ])
      done
    done
  done;
  s

let test_pigeonhole () =
  Alcotest.(check bool) "php(5,4) unsat" true
    (Sat.Solver.solve (pigeonhole 5 4) = Sat.Solver.Unsat);
  Alcotest.(check bool) "php(4,4) sat" true
    (Sat.Solver.solve (pigeonhole 4 4) = Sat.Solver.Sat)

let test_conflict_limit () =
  let s = pigeonhole 8 7 in
  match Sat.Solver.solve ~conflict_limit:5 s with
  | Sat.Solver.Unknown -> ()
  | Sat.Solver.Unsat -> Alcotest.fail "php(8,7) should not solve in 5 conflicts"
  | Sat.Solver.Sat -> Alcotest.fail "php(8,7) is unsat"

let test_assumptions () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s and b = Sat.Solver.new_var s in
  ignore (Sat.Solver.add_clause s [ nl a; l b ]);
  Alcotest.(check bool) "a=>b violated" true
    (Sat.Solver.solve ~assumptions:[ l a; nl b ] s = Sat.Solver.Unsat);
  Alcotest.(check bool) "solvable under a" true
    (Sat.Solver.solve ~assumptions:[ l a ] s = Sat.Solver.Sat);
  Alcotest.(check bool) "b forced" true (Sat.Solver.model_value s b);
  (* Solver stays reusable after assumption UNSAT. *)
  Alcotest.(check bool) "still sat free" true (Sat.Solver.solve s = Sat.Solver.Sat)

let prop_random_3sat =
  QCheck.Test.make ~name:"random 3-SAT vs brute force" ~count:300
    QCheck.(pair Util.arb_seed (int_range 5 9))
    (fun (seed, nv) ->
      let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
      let nc = 5 + Sim.Rng.int rng (4 * nv) in
      let clauses =
        List.init nc (fun _ ->
            List.init 3 (fun _ ->
                Sat.Solver.mklit (Sim.Rng.int rng nv) (Sim.Rng.bool rng)))
      in
      let s = Sat.Solver.create () in
      for _ = 1 to nv do
        ignore (Sat.Solver.new_var s)
      done;
      let ok = List.for_all (fun c -> Sat.Solver.add_clause s c) clauses in
      let brute =
        let sat = ref false in
        for m = 0 to (1 lsl nv) - 1 do
          if not !sat then begin
            let v lit =
              let var = Sat.Solver.var_of_lit lit in
              (m lsr var) land 1 = 1 <> (lit land 1 = 1)
            in
            if List.for_all (List.exists v) clauses then sat := true
          end
        done;
        !sat
      in
      let got =
        if not ok then false
        else
          match Sat.Solver.solve s with
          | Sat.Solver.Sat ->
              (* model must satisfy all clauses *)
              let v lit =
                Sat.Solver.model_value s (Sat.Solver.var_of_lit lit)
                <> (lit land 1 = 1)
              in
              List.for_all (List.exists v) clauses
          | Sat.Solver.Unsat -> false
          | Sat.Solver.Unknown -> not brute (* treat as wrong *)
      in
      got = brute)

let prop_incremental =
  QCheck.Test.make ~name:"incremental solving consistent" ~count:50
    Util.arb_seed (fun seed ->
      (* Add clauses in two stages; results must match adding all at once. *)
      let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
      let nv = 6 in
      let mk_clause () =
        List.init 3 (fun _ -> Sat.Solver.mklit (Sim.Rng.int rng nv) (Sim.Rng.bool rng))
      in
      let c1 = List.init 8 (fun _ -> mk_clause ()) in
      let c2 = List.init 8 (fun _ -> mk_clause ()) in
      let solve_all cs =
        let s = Sat.Solver.create () in
        for _ = 1 to nv do
          ignore (Sat.Solver.new_var s)
        done;
        let ok = List.for_all (fun c -> Sat.Solver.add_clause s c) cs in
        if not ok then Sat.Solver.Unsat else Sat.Solver.solve s
      in
      let incremental =
        let s = Sat.Solver.create () in
        for _ = 1 to nv do
          ignore (Sat.Solver.new_var s)
        done;
        let ok1 = List.for_all (fun c -> Sat.Solver.add_clause s c) c1 in
        if not ok1 then Sat.Solver.Unsat
        else begin
          ignore (Sat.Solver.solve s);
          let ok2 = List.for_all (fun c -> Sat.Solver.add_clause s c) c2 in
          if not ok2 then Sat.Solver.Unsat else Sat.Solver.solve s
        end
      in
      solve_all (c1 @ c2) = incremental)

let test_stats () =
  let s = pigeonhole 5 4 in
  ignore (Sat.Solver.solve s);
  Alcotest.(check bool) "conflicts counted" true (Sat.Solver.num_conflicts s > 0);
  Alcotest.(check bool) "propagations counted" true (Sat.Solver.num_propagations s > 0);
  Alcotest.(check bool) "vars" true (Sat.Solver.num_vars s = 20)

(* --- pinned search ------------------------------------------------------ *)

(* What one solve did: its result; the solver's running conflict,
   propagation, restart, reduction and dropped-learnt counts; and the MD5
   of its model's bits (of "" unless [Sat]). *)
let search_signature ?assumptions s =
  let result = Sat.Solver.solve ?assumptions s in
  let model =
    if result <> Sat.Solver.Sat then ""
    else
      String.init (Sat.Solver.num_vars s) (fun v ->
          if Sat.Solver.model_value s v then '1' else '0')
  in
  ( (match result with
    | Sat.Solver.Sat -> "sat"
    | Sat.Solver.Unsat -> "unsat"
    | Sat.Solver.Unknown -> "unknown"),
    [
      Sat.Solver.num_conflicts s;
      Sat.Solver.num_propagations s;
      Sat.Solver.num_restarts s;
      Sat.Solver.num_reduce_dbs s;
      Sat.Solver.num_learnts_removed s;
    ],
    Digest.to_hex (Digest.string model) )

let random_3sat ~seed ~nvars ~nclauses =
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
  let s = Sat.Solver.create () in
  for _ = 1 to nvars do
    ignore (Sat.Solver.new_var s)
  done;
  for _ = 1 to nclauses do
    ignore
      (Sat.Solver.add_clause s
         (List.init 3 (fun _ ->
              Sat.Solver.mklit (Sim.Rng.int rng nvars) (Sim.Rng.bool rng))))
  done;
  (s, rng)

let no_model = Digest.to_hex (Digest.string "")

(* The search is pinned: a change to the kernel that claims to make the
   same decisions, propagations, learnt clauses, restarts and database
   reductions must reproduce every count and model below.  php(8,7) runs
   4005 conflicts through 21 restarts; the random 3-SAT instance (180
   variables, 740 clauses) is solved six times on one solver under two
   random assumptions each, mixes SAT and UNSAT answers and reduces its
   learnt database once. *)
let test_pinned_search () =
  let signature = Alcotest.(triple string (list int) string) in
  Alcotest.check signature "php(8,7)"
    ("unsat", [ 4005; 52109; 21; 0; 0 ], no_model)
    (search_signature (pigeonhole 8 7));
  let nvars = 180 in
  let s, rng = random_3sat ~seed:5 ~nvars ~nclauses:740 in
  List.iteri
    (fun k expected ->
      let assumptions =
        List.init 2 (fun _ ->
            Sat.Solver.mklit (Sim.Rng.int rng nvars) (Sim.Rng.bool rng))
      in
      Alcotest.check signature
        (Printf.sprintf "3-SAT call %d" k)
        expected
        (search_signature ~assumptions s))
    [
      ("sat", [ 1164; 43800; 6; 0; 0 ], "10c5b5f8161885d331aa0008c496a6a3");
      ("sat", [ 1164; 43980; 6; 0; 0 ], "10c5b5f8161885d331aa0008c496a6a3");
      ("sat", [ 1164; 44160; 6; 0; 0 ], "10c5b5f8161885d331aa0008c496a6a3");
      ("sat", [ 1164; 44340; 6; 0; 0 ], "10c5b5f8161885d331aa0008c496a6a3");
      ("unsat", [ 2470; 90654; 14; 0; 0 ], no_model);
      ("sat", [ 5128; 187291; 28; 1; 2000 ], "8ffb0e1e7f6b87986e4e6afaa82be811");
    ]

let () =
  Alcotest.run "solver"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic_sat;
          Alcotest.test_case "units" `Quick test_empty_and_unit;
          Alcotest.test_case "tautology" `Quick test_tautology;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "conflict limit" `Quick test_conflict_limit;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "pinned search" `Quick test_pinned_search;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest [ prop_random_3sat; prop_incremental ] );
    ]
