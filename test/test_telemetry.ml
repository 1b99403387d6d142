(* Telemetry: the JSON layer must round-trip through its own parser, the
   exhaustive simulator's words_computed counter must be exact (including
   windows whose truth table is shorter than the chunk's entry size), and
   engine counters must be coherent after a real run. *)

open Simsweep.Telemetry

(* --- JSON round-trips ---------------------------------------------------- *)

let sample =
  Obj
    [
      ("null", Null);
      ("yes", Bool true);
      ("no", Bool false);
      ("int", Int 42);
      ("neg", Int (-7));
      ("zero", Int 0);
      ("float", Float 3.25);
      ("small", Float 1.5e-9);
      ("big", Float 123456789.0);
      ("str", String "plain");
      ( "escaped",
        String "quote:\" backslash:\\ newline:\n tab:\t ctrl:\x01 end" );
      ("empty_list", List []);
      ("empty_obj", Obj []);
      ("list", List [ Int 1; String "two"; Bool false; Null; Float 0.5 ]);
      ("nested", Obj [ ("inner", List [ Obj [ ("k", Int 9) ] ]) ]);
    ]

let check_roundtrip name ~indent v =
  match parse (to_string ~indent v) with
  | Ok v' -> Alcotest.(check bool) name true (v = v')
  | Error e -> Alcotest.fail (name ^ ": parse error: " ^ e)

let test_json_roundtrip () =
  check_roundtrip "compact" ~indent:false sample;
  check_roundtrip "indented" ~indent:true sample

let test_json_values () =
  Alcotest.(check string) "int" "42" (to_string (Int 42));
  Alcotest.(check string) "bool" "true" (to_string (Bool true));
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "float keeps a dot" "2.0" (to_string (Float 2.));
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan));
  Alcotest.(check string) "inf is null" "null" (to_string (Float Float.infinity));
  (match parse "{\"a\": [1, 2.5, \"x\"]}" with
  | Ok (Obj [ ("a", List [ Int 1; Float 2.5; String "x" ]) ]) -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (match parse "\\u0041 junk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match parse "{\"s\": \"\\u0041\\u00e9\"}" with
  | Ok (Obj [ ("s", String "A\xc3\xa9") ]) -> ()
  | Ok _ -> Alcotest.fail "wrong unicode decode"
  | Error e -> Alcotest.fail e);
  (match parse "[1, 2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted")

let test_member () =
  let j = Obj [ ("a", Int 1); ("b", String "x") ] in
  Alcotest.(check bool) "present" true (member "b" j = Some (String "x"));
  Alcotest.(check bool) "absent" true (member "c" j = None);
  Alcotest.(check bool) "non-object" true (member "a" (Int 3) = None)

(* --- exact words_computed ------------------------------------------------ *)

(* A chain AND cone over [k] fresh PIs; returns the root node id and the
   input node array. *)
let chain_cone g k =
  let pis = Array.init k (fun _ -> Aig.Network.add_pi g) in
  let root = Array.fold_left (fun acc l -> Aig.Network.add_and g acc l) pis.(0)
      (Array.sub pis 1 (k - 1)) in
  (Aig.Lit.node root, Array.map Aig.Lit.node pis)

(* Self-comparison pair: survives every simulation round, so the window is
   simulated completely and the verdict is [Proved]. *)
let self_job root inputs tag =
  {
    Simsweep.Exhaustive.inputs;
    pairs = [ { Simsweep.Exhaustive.a = root; b = root; compl_ = false; tag } ];
  }

(* Two windows in one chunk: 11 inputs (tt = 32 words) and 13 inputs
   (tt = 128 words).  With a large memory budget the chunk's entry size is
   128 words — larger than the first window's whole truth table — so exact
   counting must charge only the words actually computed:
   rows * tt_words per fully simulated window. *)
let words_computed_case ~memory_words ~expected_rounds () =
  let g = Aig.Network.create () in
  let root_a, inputs_a = chain_cone g 11 in
  let root_b, inputs_b = chain_cone g 13 in
  Aig.Network.add_po g (Aig.Lit.make root_a false);
  Aig.Network.add_po g (Aig.Lit.make root_b false);
  let jobs = [ self_job root_a inputs_a 0; self_job root_b inputs_b 1 ] in
  let stats = Simsweep.Exhaustive.new_stats () in
  let verdicts =
    Util.with_pool (fun pool ->
        Simsweep.Exhaustive.run g ~pool ~memory_words ~stats ~jobs ~num_tags:2 ())
  in
  Alcotest.(check bool) "A proved" true (verdicts.(0) = Simsweep.Exhaustive.Proved);
  Alcotest.(check bool) "B proved" true (verdicts.(1) = Simsweep.Exhaustive.Proved);
  (* rows_A = 11 inputs + 10 ANDs = 21, tt_A = 2^(11-6) = 32;
     rows_B = 13 + 12 = 25, tt_B = 128. *)
  let expected = (21 * 32) + (25 * 128) in
  Alcotest.(check int) "exact words" expected stats.Simsweep.Exhaustive.words_computed;
  Alcotest.(check int) "rounds" expected_rounds stats.Simsweep.Exhaustive.rounds;
  Alcotest.(check int) "windows" 2 stats.Simsweep.Exhaustive.windows;
  Alcotest.(check int) "no small windows" 0 stats.Simsweep.Exhaustive.small_windows;
  Alcotest.(check int) "nodes" (10 + 12) stats.Simsweep.Exhaustive.nodes_simulated

(* Large budget: entry size 128 (capped by the longest table); window A's
   32-word table is shorter than one entry, one round per window. *)
let test_words_entry_larger_than_tt () =
  words_computed_case ~memory_words:(1 lsl 20) ~expected_rounds:2 ()

(* Tight budget: the doubling loop stops at entry size 32
   (2*16*46 = 1472 <= 2000 < 2*32*46 = 2944); window A takes 1 round,
   window B 4 rounds — same exact word total. *)
let test_words_multi_round () =
  words_computed_case ~memory_words:2000 ~expected_rounds:5 ()

let test_words_small_window_fast_path () =
  let g = Aig.Network.create () in
  let root, inputs = chain_cone g 4 in
  Aig.Network.add_po g (Aig.Lit.make root false);
  let stats = Simsweep.Exhaustive.new_stats () in
  let verdicts =
    Util.with_pool (fun pool ->
        Simsweep.Exhaustive.run g ~pool ~memory_words:(1 lsl 16) ~stats
          ~jobs:[ self_job root inputs 0 ] ~num_tags:1 ())
  in
  Alcotest.(check bool) "proved" true (verdicts.(0) = Simsweep.Exhaustive.Proved);
  Alcotest.(check int) "fast path hit" 1 stats.Simsweep.Exhaustive.small_windows;
  (* 3 AND nodes + 4 projection tables, one word each. *)
  Alcotest.(check int) "exact words" 7 stats.Simsweep.Exhaustive.words_computed

(* --- engine counters ----------------------------------------------------- *)

let test_engine_counters () =
  (* 22 PIs exceed the scaled one-shot P threshold (k_P = 20), so the G and
     L phases must do the proving and their counters fire. *)
  let original = Gen.Arith.multiplier ~bits:11 in
  let optimized = Opt.Resyn.resyn2 original in
  let miter = Aig.Miter.build original optimized in
  let r =
    Util.with_pool (fun pool ->
        Simsweep.Engine.run ~config:Simsweep.Config.scaled ~pool miter)
  in
  let s = r.Simsweep.Engine.stats in
  Alcotest.(check bool) "proved" true (r.Simsweep.Engine.outcome = Simsweep.Engine.Proved);
  Alcotest.(check bool) "times nonneg" true
    (s.Simsweep.Stats.time_p >= 0. && s.Simsweep.Stats.time_g >= 0.
     && s.Simsweep.Stats.time_l >= 0.);
  Alcotest.(check bool) "psim ran" true (s.Simsweep.Stats.psim.Sim.Psim.runs >= 1);
  Alcotest.(check bool) "psim words counted" true
    (s.Simsweep.Stats.psim.Sim.Psim.node_words > 0);
  Alcotest.(check bool) "g iterations counted" true (s.Simsweep.Stats.g_iterations >= 1);
  Alcotest.(check bool) "L phase ran" true (s.Simsweep.Stats.local_phases >= 1);
  Alcotest.(check bool) "local proofs within pairs tried" true
    (s.Simsweep.Stats.pairs_proved_local <= s.Simsweep.Stats.local_pairs_tried);
  Alcotest.(check bool) "local cuts checked" true (s.Simsweep.Stats.local_cuts_checked > 0);
  Alcotest.(check bool) "candidates >= proved" true
    (s.Simsweep.Stats.g_candidates >= s.Simsweep.Stats.pairs_proved_global);
  Alcotest.(check bool) "no deadline configured, none hit" false
    s.Simsweep.Stats.cancelled;
  Alcotest.(check bool) "exhaustive work counted" true
    (s.Simsweep.Stats.exhaustive.Simsweep.Exhaustive.windows > 0
     && s.Simsweep.Stats.exhaustive.Simsweep.Exhaustive.words_computed > 0
     && s.Simsweep.Stats.exhaustive.Simsweep.Exhaustive.rounds
        >= s.Simsweep.Stats.exhaustive.Simsweep.Exhaustive.windows);
  (* The JSON snapshot of a real run is parseable and carries the fields
     downstream tooling keys on. *)
  let j = of_run r in
  (match parse (to_string ~indent:true j) with
  | Ok j' -> Alcotest.(check bool) "snapshot round-trips" true (j = j')
  | Error e -> Alcotest.fail e);
  let has path =
    Alcotest.(check bool) ("has " ^ String.concat "." path) true
      (List.fold_left (fun o k -> Option.bind o (member k)) (Some j) path
       <> None)
  in
  List.iter has
    [
      [ "stats"; "exhaustive" ];
      [ "stats"; "psim" ];
      [ "stats"; "time_p_s" ];
      [ "stats"; "time_g_s" ];
      [ "stats"; "time_l_s" ];
      [ "stats"; "local_pairs_tried" ];
      [ "stats"; "local_cuts_checked" ];
      [ "stats"; "exhaustive"; "arena_hwm_words" ];
      [ "stats"; "exhaustive"; "arena_grows" ];
    ]

(* An expired deadline must set the cancelled flag instead of running the
   engine to convergence. *)
let test_deadline_flag () =
  (* 22 PIs: the P phase cannot solve the whole miter, so the flow reaches
     the deadline checks of the G/L phases. *)
  let original = Gen.Arith.multiplier ~bits:11 in
  let optimized = Opt.Resyn.resyn2 original in
  let miter = Aig.Miter.build original optimized in
  let cancel = Par.Cancel.create ~deadline_in:0. () in
  let r =
    Util.with_pool (fun pool ->
        Simsweep.Engine.run ~config:Simsweep.Config.scaled ~cancel ~pool miter)
  in
  let s = r.Simsweep.Engine.stats in
  Alcotest.(check bool) "deadline recorded" true s.Simsweep.Stats.cancelled

let test_pool_stats () =
  let stats =
    Util.with_pool (fun pool ->
        Par.Pool.parallel_for pool ~chunk:10 ~start:0 ~stop:1000 (fun _ -> ());
        Par.Pool.parallel_for pool ~start:0 ~stop:1 (fun _ -> ());
        Par.Pool.stats pool)
  in
  Alcotest.(check int) "one dispatched job" 1 stats.Par.Pool.jobs;
  Alcotest.(check int) "one inline job" 1 stats.Par.Pool.seq_jobs;
  Alcotest.(check int) "items" 1001 stats.Par.Pool.items;
  (* The range is partitioned into blocks that are chunked independently:
     one block per worker (sum of per-block ceilings — 3 workers over 1000
     at chunk 10 gives 34 * 3 = 102) or, on an oversubscribed host, a
     single block (ceil(1000/10) = 100). *)
  let claims = Array.fold_left ( + ) 0 stats.Par.Pool.chunks_per_worker in
  Alcotest.(check bool)
    (Printf.sprintf "chunk claims total (%d)" claims)
    true
    (claims >= 100 && claims <= 102);
  Alcotest.(check bool) "barrier wait nonneg" true (stats.Par.Pool.barrier_wait >= 0.);
  Alcotest.(check bool) "steals within claims" true
    (Array.for_all2 ( >= ) stats.Par.Pool.chunks_per_worker stats.Par.Pool.steals);
  (* of_pool serialises the new scheduling fields and round-trips. *)
  match parse (to_string (of_pool stats)) with
  | Ok v ->
      Alcotest.(check bool) "pool json" true (member "jobs" v = Some (Int 1));
      List.iter
        (fun key ->
          Alcotest.(check bool) ("has " ^ key) true (member key v <> None))
        [ "steals"; "regions"; "region_jobs"; "chunks_per_worker"; "barrier_wait_s" ]
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "member" `Quick test_member;
        ] );
      ( "words",
        [
          Alcotest.test_case "entry larger than tt" `Quick
            test_words_entry_larger_than_tt;
          Alcotest.test_case "multi round" `Quick test_words_multi_round;
          Alcotest.test_case "small-window fast path" `Quick
            test_words_small_window_fast_path;
        ] );
      ( "engine",
        [
          Alcotest.test_case "counters" `Quick test_engine_counters;
          Alcotest.test_case "deadline flag" `Quick test_deadline_flag;
          Alcotest.test_case "pool stats" `Quick test_pool_stats;
        ] );
    ]
