(* AIGER ASCII I/O. *)

let test_roundtrip_small () =
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
  Aig.Network.add_po g (Aig.Network.add_xor g a b);
  Aig.Network.add_po g (Aig.Lit.neg (Aig.Network.add_and g a b));
  let s = Aig.Aiger_io.to_string g in
  let g' = Aig.Aiger_io.of_string s in
  Alcotest.(check int) "pis" 2 (Aig.Network.num_pis g');
  Alcotest.(check int) "pos" 2 (Aig.Network.num_pos g');
  Alcotest.(check bool) "equivalent" true (Util.equivalent_brute g g')

let test_known_format () =
  (* An AND gate in hand-written aag. *)
  let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n" in
  let g = Aig.Aiger_io.of_string src in
  Alcotest.(check int) "pis" 2 (Aig.Network.num_pis g);
  Alcotest.(check int) "ands" 1 (Aig.Network.num_ands g);
  let cex11 = [| true; true |] and cex10 = [| true; false |] in
  Alcotest.(check bool) "1&1" true (Sim.Cex.check g cex11 0);
  Alcotest.(check bool) "1&0" false (Sim.Cex.check g cex10 0)

let test_complemented_output () =
  let src = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n" in
  let g = Aig.Aiger_io.of_string src in
  Alcotest.(check bool) "nand" true (Sim.Cex.check g [| true; false |] 0);
  Alcotest.(check bool) "nand11" false (Sim.Cex.check g [| true; true |] 0)

let test_const_output () =
  let src = "aag 1 1 0 2 0\n2\n0\n1\n" in
  let g = Aig.Aiger_io.of_string src in
  Alcotest.(check int) "po0 const0" Aig.Lit.const_false (Aig.Network.po g 0);
  Alcotest.(check int) "po1 const1" Aig.Lit.const_true (Aig.Network.po g 1)

let test_errors () =
  let bad s msg =
    match Aig.Aiger_io.of_string s with
    | exception Aig.Aiger_io.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error: %s" msg
  in
  bad "" "empty";
  bad "aag 1 1 0" "short header";
  bad "aag 1 1 1 0 0\n2\n4 0\n" "latches";
  bad "aag 3 2 0 1 1\n2\n4\n6\n" "truncated";
  bad "aag 3 2 0 1 1\n2\n4\n99\n6 2 4\n" "undefined literal"

let test_file_io () =
  let g = Gen.Arith.adder ~bits:4 in
  let path = Filename.temp_file "simsweep" ".aag" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Aig.Aiger_io.write_file path g;
      let g' = Aig.Aiger_io.read_file path in
      Alcotest.(check bool) "file roundtrip equivalent" true
        (Util.equivalent_brute g g'))

let test_binary_roundtrip () =
  let g = Gen.Arith.multiplier ~bits:5 in
  let b = Aig.Aiger_io.to_binary_string g in
  Alcotest.(check string) "binary header" "aig" (String.sub b 0 3);
  let g' = Aig.Aiger_io.of_string b in
  Alcotest.(check int) "pis" (Aig.Network.num_pis g) (Aig.Network.num_pis g');
  Alcotest.(check bool) "equivalent" true (Util.equivalent_brute g g');
  (* Binary is considerably smaller than ASCII on real circuits. *)
  Alcotest.(check bool) "smaller than ascii" true
    (String.length b < String.length (Aig.Aiger_io.to_string g))

let test_binary_file_extension () =
  let g = Gen.Arith.adder ~bits:4 in
  let path = Filename.temp_file "simsweep" ".aig" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Aig.Aiger_io.write_file path g;
      let ic = open_in_bin path in
      let magic = really_input_string ic 4 in
      close_in ic;
      Alcotest.(check string) "binary magic" "aig " magic;
      Alcotest.(check bool) "roundtrip" true
        (Util.equivalent_brute g (Aig.Aiger_io.read_file path)))

let test_binary_errors () =
  let bad s =
    match Aig.Aiger_io.of_string s with
    | exception Aig.Aiger_io.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected parse error"
  in
  bad "aig 3 2 0 1 1\n6\n";
  (* truncated deltas *)
  bad "aig 3 2 1 1 0\n2\n6\n" (* latches *)

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"binary roundtrip preserves function" ~count:50
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:50 ~pos:5 seed in
      let g' = Aig.Aiger_io.of_string (Aig.Aiger_io.to_binary_string g) in
      Util.equivalent_brute g g')

let prop_roundtrip_random =
  QCheck.Test.make ~name:"roundtrip preserves function" ~count:60 Util.arb_seed
    (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:50 ~pos:5 seed in
      let g' = Aig.Aiger_io.of_string (Aig.Aiger_io.to_string g) in
      Util.equivalent_brute g g')

(* The fuzz repro format depends on write->read->write being the identity:
   a shrunk reproducer checked into the tree must re-serialise
   byte-for-byte, or regression diffs churn. *)
let prop_ascii_write_read_write_identical =
  QCheck.Test.make ~name:"ascii write->read->write is byte-identical" ~count:60
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:60 ~pos:5 seed in
      let s = Aig.Aiger_io.to_string g in
      s = Aig.Aiger_io.to_string (Aig.Aiger_io.of_string s))

let prop_binary_write_read_write_identical =
  QCheck.Test.make ~name:"binary write->read->write is byte-identical" ~count:60
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:60 ~pos:5 seed in
      let b = Aig.Aiger_io.to_binary_string g in
      b = Aig.Aiger_io.to_binary_string (Aig.Aiger_io.of_string b))

(* Cross-format: the same network serialised via either format reads back
   to the same ascii normal form. *)
let prop_formats_agree =
  QCheck.Test.make ~name:"ascii and binary agree on the normal form" ~count:40
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:60 ~pos:5 seed in
      let via_ascii = Aig.Aiger_io.of_string (Aig.Aiger_io.to_string g) in
      let via_binary = Aig.Aiger_io.of_string (Aig.Aiger_io.to_binary_string g) in
      Aig.Aiger_io.to_string via_ascii = Aig.Aiger_io.to_string via_binary)

let test_file_write_read_write_identical () =
  (* Through the file layer too: the repro artifacts go through
     write_file/read_file. *)
  List.iter
    (fun (ext, name, g) ->
      let path = Filename.temp_file "simsweep" ext in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Aig.Aiger_io.write_file path g;
          let g' = Aig.Aiger_io.read_file path in
          Alcotest.(check string) name (Aig.Aiger_io.to_string g)
            (Aig.Aiger_io.to_string g')))
    [
      (".aag", "ascii file identity", Gen.Arith.multiplier ~bits:4);
      (".aig", "binary file identity", Gen.Control.voter ~n:9);
    ]

(* The checked-in example miters get a verdict, not just cross-engine
   agreement: the default flow (simulation engine, SAT on the remainder)
   proves the three optimised pairs, and disproves the divider whose
   output 1 is negated with a counter-example that replays.  The fixtures
   are this test's dune [deps]. *)
let test_fixture_verdicts () =
  Util.with_pool @@ fun pool ->
  List.iter
    (fun (file, expected) ->
      let m = Aig.Aiger_io.read_file (Filename.concat "../examples/aiger" file) in
      let c =
        Simsweep.Engine.check_with_fallback ~config:Simsweep.Config.scaled
          ~pool m
      in
      match (c.Simsweep.Engine.final, expected) with
      | Simsweep.Engine.Proved, `Proved -> ()
      | Simsweep.Engine.Disproved (cex, po), `Disproved_at want ->
          Alcotest.(check int) (file ^ ": failing output") want po;
          Alcotest.(check bool) (file ^ ": cex replays") true
            (Sim.Cex.check m cex po)
      | _ -> Alcotest.failf "%s: wrong verdict" file)
    [
      ("add8_vs_resyn2.aag", `Proved);
      ("barrel8_vs_resyn2.aag", `Proved);
      ("mul4_array_vs_wallace.aag", `Proved);
      ("div4_negpo.aag", `Disproved_at 1);
    ]

let () =
  Alcotest.run "aiger"
    [
      ( "unit",
        [
          Alcotest.test_case "roundtrip small" `Quick test_roundtrip_small;
          Alcotest.test_case "known format" `Quick test_known_format;
          Alcotest.test_case "complemented output" `Quick test_complemented_output;
          Alcotest.test_case "const output" `Quick test_const_output;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "binary roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "binary file ext" `Quick test_binary_file_extension;
          Alcotest.test_case "binary errors" `Quick test_binary_errors;
          Alcotest.test_case "file identity" `Quick test_file_write_read_write_identical;
          Alcotest.test_case "fixture verdicts" `Quick test_fixture_verdicts;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip_random;
            prop_binary_roundtrip;
            prop_ascii_write_read_write_identical;
            prop_binary_write_read_write_identical;
            prop_formats_agree;
          ] );
    ]
