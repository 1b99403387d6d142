(* The exhaustive simulator (Algorithm 1): verdicts must agree with global
   truth tables computed by reference evaluation, across window shapes,
   complement flags, constant targets and multi-round operation under tiny
   memory budgets. *)

let run_jobs ?(memory_words = 1 lsl 16) g jobs num_tags =
  Util.with_pool (fun pool ->
      Simsweep.Exhaustive.run g ~pool ~memory_words ~jobs ~num_tags ())

let test_simple_pair () =
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
  let x = Aig.Network.add_xor g a b in
  let u = Aig.Network.add_and g a (Aig.Lit.neg b) in
  let v = Aig.Network.add_and g (Aig.Lit.neg a) b in
  let nx = Aig.Network.add_and g (Aig.Lit.neg u) (Aig.Lit.neg v) in
  Aig.Network.add_po g x;
  Aig.Network.add_po g nx;
  let inputs = [| Aig.Lit.node a; Aig.Lit.node b |] in
  let jobs =
    [
      (* x == !nx: complement flag true. *)
      {
        Simsweep.Exhaustive.inputs;
        pairs =
          [
            { Simsweep.Exhaustive.a = Aig.Lit.node x; b = Aig.Lit.node nx; compl_ = true; tag = 0 };
            { Simsweep.Exhaustive.a = Aig.Lit.node x; b = Aig.Lit.node nx; compl_ = false; tag = 1 };
          ];
      };
    ]
  in
  let v = run_jobs g jobs 2 in
  Alcotest.(check bool) "complement proved" true (v.(0) = Simsweep.Exhaustive.Proved);
  (match v.(1) with
  | Simsweep.Exhaustive.Mismatch _ -> ()
  | _ -> Alcotest.fail "same-phase comparison must mismatch")

let test_const_target () =
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g in
  let z = Aig.Network.add_and g a (Aig.Lit.neg a) in
  (* strash reduces a&!a to const; build something else equal to 0:
     a & b & !b via raw structure is also strashed... use a & b with b
     forced 0 by a second input pattern — instead just test a non-constant
     node against the constant target. *)
  ignore z;
  let b = Aig.Network.add_pi g in
  let x = Aig.Network.add_and g a b in
  Aig.Network.add_po g x;
  let inputs = [| Aig.Lit.node a; Aig.Lit.node b |] in
  let jobs =
    [
      {
        Simsweep.Exhaustive.inputs;
        pairs = [ { Simsweep.Exhaustive.a = Aig.Lit.node x; b = -1; compl_ = false; tag = 0 } ];
      };
    ]
  in
  match (run_jobs g jobs 1).(0) with
  | Simsweep.Exhaustive.Mismatch { pattern; _ } ->
      (* First pattern where a&b = 1 is a=1,b=1 = pattern 3. *)
      Alcotest.(check int) "first mismatch pattern" 3 pattern
  | _ -> Alcotest.fail "a&b is not constant false"

let test_invalid_window () =
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
  let x = Aig.Network.add_and g a b in
  Aig.Network.add_po g x;
  let jobs =
    [
      {
        Simsweep.Exhaustive.inputs = [| Aig.Lit.node a |];
        pairs = [ { Simsweep.Exhaustive.a = Aig.Lit.node x; b = -1; compl_ = false; tag = 0 } ];
      };
    ]
  in
  Alcotest.(check bool) "invalid" true
    ((run_jobs g jobs 1).(0) = Simsweep.Exhaustive.Invalid)

let test_root_is_input () =
  (* A pair whose second node sits on the cut itself: its truth table is
     the projection. *)
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
  let x = Aig.Network.add_and g a b in
  let y = Aig.Network.add_and g x (Aig.Lit.neg b) in
  Aig.Network.add_po g y;
  (* y vs x over cut {x, b}: y = x & !b, not equal to x. *)
  let jobs =
    [
      {
        Simsweep.Exhaustive.inputs = [| Aig.Lit.node x; Aig.Lit.node b |];
        pairs =
          [ { Simsweep.Exhaustive.a = Aig.Lit.node y; b = Aig.Lit.node x; compl_ = false; tag = 0 } ];
      };
    ]
  in
  match (run_jobs g jobs 1).(0) with
  | Simsweep.Exhaustive.Mismatch _ -> ()
  | _ -> Alcotest.fail "y != x over this cut"

let test_multi_round_tiny_memory () =
  (* A 12-input window goes to the simulation table, with 64 truth-table
     words; a tiny budget forces several rounds per window and the
     verdicts must not change. *)
  let g = Gen.Arith.adder ~bits:6 in
  let opt = Opt.Xorflip.run g in
  let m = Aig.Miter.build g opt in
  let po_node i = Aig.Lit.node (Aig.Network.po m i) in
  let pis = Array.init (Aig.Network.num_pis m) (fun i -> Aig.Network.pi m i) in
  Alcotest.(check bool) "table path" true
    (Array.length pis > Simsweep.Exhaustive.small_inputs);
  let mk_jobs () =
    List.filter_map
      (fun i ->
        if Aig.Network.po m i = Aig.Lit.const_false then None
        else
          Some
            {
              Simsweep.Exhaustive.inputs = pis;
              pairs =
                [
                  {
                    Simsweep.Exhaustive.a = po_node i;
                    b = -1;
                    compl_ = Aig.Lit.is_compl (Aig.Network.po m i);
                    tag = i;
                  };
                ];
            })
      (List.init (Aig.Network.num_pos m) Fun.id)
  in
  let run memory_words =
    let stats = Simsweep.Exhaustive.new_stats () in
    let v =
      Util.with_pool (fun pool ->
          Simsweep.Exhaustive.run m ~pool ~memory_words ~stats ~jobs:(mk_jobs ())
            ~num_tags:(Aig.Network.num_pos m) ())
    in
    (v, stats)
  in
  let big, _ = run (1 lsl 20) in
  let small, stats = run 600 in
  Alcotest.(check bool) "same verdicts across budgets" true (big = small);
  Alcotest.(check bool) "several rounds per window" true
    (stats.Simsweep.Exhaustive.rounds > stats.Simsweep.Exhaustive.windows);
  Alcotest.(check int) "no small windows" 0 stats.Simsweep.Exhaustive.small_windows;
  Array.iteri
    (fun i v ->
      if Aig.Network.po m i <> Aig.Lit.const_false then
        Alcotest.(check bool) (Printf.sprintf "po %d proved" i) true
          (v = Simsweep.Exhaustive.Proved))
    big

let test_stats_accounting () =
  let g = Gen.Arith.adder ~bits:3 in
  let stats = Simsweep.Exhaustive.new_stats () in
  Util.with_pool (fun pool ->
      let pis = Array.init 6 (fun i -> Aig.Network.pi g i) in
      let jobs =
        [
          {
            Simsweep.Exhaustive.inputs = pis;
            pairs =
              [
                {
                  Simsweep.Exhaustive.a = Aig.Lit.node (Aig.Network.po g 3);
                  b = -1;
                  compl_ = false;
                  tag = 0;
                };
              ];
          };
        ]
      in
      ignore
        (Simsweep.Exhaustive.run g ~pool ~memory_words:4096 ~stats ~jobs
           ~num_tags:1 ()));
  Alcotest.(check int) "one window" 1 stats.Simsweep.Exhaustive.windows;
  Alcotest.(check bool) "nodes counted" true (stats.Simsweep.Exhaustive.nodes_simulated > 0);
  Alcotest.(check bool) "rounds counted" true (stats.Simsweep.Exhaustive.rounds >= 1)

let test_arena_mixed_batches () =
  (* Arena property: one batch mixing small (memoised) and large windows
     must produce identical verdicts and words_computed whatever the memory
     budget (arena slice sizes, round counts) and whether the arena is
     created per run or reused across runs. *)
  let g = Aig.Network.create () in
  let npis = 14 in
  let pis = Array.init npis (fun _ -> Aig.Network.add_pi g) in
  (* chain.(k) = pi0 & ... & pik, so the window pi0..pik is an exact cut. *)
  let chain = Array.make npis pis.(0) in
  for k = 1 to npis - 1 do
    chain.(k) <- Aig.Network.add_and g chain.(k - 1) pis.(k)
  done;
  Aig.Network.add_po g chain.(npis - 1);
  (* Self-pairs are always Proved and make word counts exact. *)
  let widths = [ 4; 8; 10; 12; 14 ] in
  let jobs =
    List.mapi
      (fun tag w ->
        {
          Simsweep.Exhaustive.inputs =
            Array.map Aig.Lit.node (Array.sub pis 0 w);
          pairs =
            [
              {
                Simsweep.Exhaustive.a = Aig.Lit.node chain.(w - 1);
                b = Aig.Lit.node chain.(w - 1);
                compl_ = false;
                tag;
              };
            ];
        })
      widths
  in
  let num_tags = List.length widths in
  let run ?arena memory_words =
    let stats = Simsweep.Exhaustive.new_stats () in
    let v =
      Util.with_pool (fun pool ->
          Simsweep.Exhaustive.run g ~pool ~memory_words ?arena ~stats ~jobs
            ~num_tags ())
    in
    (v, stats)
  in
  let ref_v, ref_stats = run (1 lsl 16) in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "self-pair proved" true
        (v = Simsweep.Exhaustive.Proved))
    ref_v;
  Alcotest.(check bool) "words counted" true
    (ref_stats.Simsweep.Exhaustive.words_computed > 0);
  Alcotest.(check bool) "arena used" true
    (ref_stats.Simsweep.Exhaustive.arena_hwm_words > 0);
  (* Smaller budgets: more rounds, smaller arena slices, same results. *)
  List.iter
    (fun budget ->
      let v, stats = run budget in
      Alcotest.(check bool)
        (Printf.sprintf "verdicts at budget %d" budget)
        true (v = ref_v);
      Alcotest.(check int)
        (Printf.sprintf "words_computed at budget %d" budget)
        ref_stats.Simsweep.Exhaustive.words_computed
        stats.Simsweep.Exhaustive.words_computed)
    [ 4096; 512; 64 ];
  (* A caller-provided arena reused across successive runs behaves like a
     fresh one and never regrows once warm. *)
  let arena = Simsweep.Arena.create ~words:(1 lsl 16) in
  let v1, s1 = run ~arena (1 lsl 16) in
  let v2, s2 = run ~arena (1 lsl 16) in
  Alcotest.(check bool) "persistent arena verdicts" true
    (v1 = ref_v && v2 = ref_v);
  Alcotest.(check int) "persistent arena words"
    ref_stats.Simsweep.Exhaustive.words_computed
    s1.Simsweep.Exhaustive.words_computed;
  Alcotest.(check int) "no growth on reuse" 0
    (s1.Simsweep.Exhaustive.arena_grows + s2.Simsweep.Exhaustive.arena_grows)

let prop_matches_truth_tables =
  QCheck.Test.make ~name:"verdicts agree with reference truth tables"
    ~count:40 Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:6 ~nodes:50 ~pos:2 seed in
      (* Compare every AND node against every other in a window over all
         PIs — brute truth tables decide the expected verdict. *)
      let ands = ref [] in
      Aig.Network.iter_ands g (fun n -> ands := n :: !ands);
      let nodes = Array.of_list (List.rev !ands) in
      if Array.length nodes < 2 then true
      else begin
        let pis = Array.init 6 (fun i -> Aig.Network.pi g i) in
        let pairs = ref [] in
        let expected = ref [] in
        let tag = ref 0 in
        for i = 0 to min 5 (Array.length nodes - 2) do
          let a = nodes.(i + 1) and b = nodes.(i) in
          let ta = Util.global_tt g (Aig.Lit.make a false) in
          let tb = Util.global_tt g (Aig.Lit.make b false) in
          let compl_ = i mod 2 = 0 in
          let expect =
            let tb' = if compl_ then Bv.Tt.bnot tb else tb in
            Bv.Tt.equal ta tb'
          in
          pairs := { Simsweep.Exhaustive.a; b; compl_; tag = !tag } :: !pairs;
          expected := expect :: !expected;
          incr tag
        done;
        let jobs = [ { Simsweep.Exhaustive.inputs = pis; pairs = !pairs } ] in
        let verdicts = run_jobs g jobs !tag in
        List.for_all2
          (fun p expect ->

            match verdicts.(p.Simsweep.Exhaustive.tag) with
            | Simsweep.Exhaustive.Proved -> expect
            | Simsweep.Exhaustive.Mismatch { pattern; inputs } ->
                (not expect)
                && (* the mismatch pattern is a true witness *)
                let cex = Sim.Cex.of_window_pattern g ~inputs ~pattern in
                let va = Sim.Cex.eval_lit g cex (Aig.Lit.make p.Simsweep.Exhaustive.a false) in
                let vb = Sim.Cex.eval_lit g cex (Aig.Lit.make p.Simsweep.Exhaustive.b false) in
                va <> (vb <> p.Simsweep.Exhaustive.compl_)
            | Simsweep.Exhaustive.Invalid -> false)
          (List.rev !pairs) (List.rev !expected)
      end)

let prop_budget_independent =
  QCheck.Test.make ~name:"verdicts independent of memory budget" ~count:20
    Util.arb_seed (fun seed ->
      let g = Util.random_network ~pis:8 ~nodes:60 ~pos:2 seed in
      let pis = Array.init 8 (fun i -> Aig.Network.pi g i) in
      let mk tag n =
        { Simsweep.Exhaustive.a = n; b = -1; compl_ = false; tag }
      in
      let ands = ref [] in
      Aig.Network.iter_ands g (fun n -> ands := n :: !ands);
      match !ands with
      | n1 :: n2 :: _ ->
          let jobs =
            [ { Simsweep.Exhaustive.inputs = pis; pairs = [ mk 0 n1; mk 1 n2 ] } ]
          in
          let a = run_jobs ~memory_words:(1 lsl 18) g jobs 2 in
          let b = run_jobs ~memory_words:256 g jobs 2 in
          a = b
      | _ -> true)

(* A plain evaluator of small windows, pattern by pattern: the window's
   inputs are free variables (input [j] is bit [j] of the pattern), a root
   that is an input is that variable, and a pair whose cone reaches a node
   that is neither an input nor an AND is [Invalid], as is every later
   pair of its job.  A mismatch is the lowest differing pattern. *)
let plain_window g (job : Simsweep.Exhaustive.job) verdicts =
  let inputs = job.Simsweep.Exhaustive.inputs in
  let n = Aig.Network.num_nodes g in
  let input_of = Array.make n (-1) in
  Array.iteri (fun j x -> input_of.(x) <- j) inputs;
  let bounded = Array.make n None in
  let rec is_bounded x =
    match bounded.(x) with
    | Some b -> b
    | None ->
        let b =
          input_of.(x) >= 0
          || Aig.Network.is_and g x
             && is_bounded (Aig.Lit.node (Aig.Network.fanin0 g x))
             && is_bounded (Aig.Lit.node (Aig.Network.fanin1 g x))
        in
        bounded.(x) <- Some b;
        b
  in
  let value pattern =
    let memo = Array.make n None in
    let rec v x =
      if input_of.(x) >= 0 then (pattern lsr input_of.(x)) land 1 = 1
      else
        match memo.(x) with
        | Some b -> b
        | None ->
            let lit l = v (Aig.Lit.node l) <> Aig.Lit.is_compl l in
            let b = lit (Aig.Network.fanin0 g x) && lit (Aig.Network.fanin1 g x) in
            memo.(x) <- Some b;
            b
    in
    v
  in
  let rec go = function
    | [] -> ()
    | (p : Simsweep.Exhaustive.pair) :: rest ->
        if is_bounded p.a && (p.b < 0 || is_bounded p.b) then begin
          let first = ref None in
          for pattern = (1 lsl Array.length inputs) - 1 downto 0 do
            let v = value pattern in
            let vb = p.b >= 0 && v p.b in
            if v p.a <> (vb <> p.compl_) then first := Some pattern
          done;
          verdicts.(p.tag) <-
            (match !first with
            | None -> Simsweep.Exhaustive.Proved
            | Some pattern -> Simsweep.Exhaustive.Mismatch { pattern; inputs });
          go rest
        end
  in
  go job.pairs

(* Random jobs of at most 10 inputs, several pairs each.  Half the windows
   hold every PI, so their cones are bounded and internal inputs put roots
   inside the leaves; the other half are random node sets, often unbounded.
   Pairs compare random nodes, a node with itself, or a node with the
   constant. *)
let gen_small_jobs =
  QCheck.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* njobs = int_range 1 4 in
    let* specs =
      list_repeat njobs
        (let* with_pis = bool in
         let* extra = list_size (int_range 0 6) (int_range 0 1000) in
         let* pairs =
           list_size (int_range 1 4)
             (let* a = int_range 0 1000 in
              let* kind = int_range 0 2 in
              let* b = int_range 0 1000 in
              let* compl_ = bool in
              return (a, kind, b, compl_))
         in
         return (with_pis, extra, pairs))
    in
    return (seed, specs))

let prop_small_evaluator_matches_plain =
  QCheck.Test.make ~name:"small-window evaluator matches a plain evaluator"
    ~count:200
    (QCheck.make gen_small_jobs) (fun (seed, specs) ->
      let g = Util.random_network ~pis:6 ~nodes:60 ~pos:3 seed in
      let n = Aig.Network.num_nodes g in
      let pis = List.init (Aig.Network.num_pis g) (Aig.Network.pi g) in
      let tag = ref 0 in
      let jobs =
        List.map
          (fun (with_pis, extra, pairs) ->
            let extra = List.map (fun x -> x mod n) extra in
            let inputs =
              List.sort_uniq compare ((if with_pis then pis else []) @ extra)
              |> List.filteri (fun i _ -> i < 10)
              |> Array.of_list
            in
            let inputs = if inputs = [||] then [| List.hd pis |] else inputs in
            let pairs =
              List.map
                (fun (a, kind, b, compl_) ->
                  let a = a mod n in
                  let b = match kind with 0 -> b mod n | 1 -> a | _ -> -1 in
                  incr tag;
                  { Simsweep.Exhaustive.a; b; compl_; tag = !tag - 1 })
                pairs
            in
            { Simsweep.Exhaustive.inputs; pairs })
          specs
      in
      let num_tags = !tag in
      let expected = Array.make num_tags Simsweep.Exhaustive.Invalid in
      List.iter (fun job -> plain_window g job expected) jobs;
      let stats = Simsweep.Exhaustive.new_stats () in
      let got =
        Util.with_pool (fun pool ->
            Simsweep.Exhaustive.run g ~pool ~memory_words:(1 lsl 16) ~stats ~jobs
              ~num_tags ())
      in
      (* One pair alone on its window: [prove_on_windows] says proved
         exactly when the plain evaluator does. *)
      let alone_agrees =
        List.for_all
          (fun (job : Simsweep.Exhaustive.job) ->
            List.for_all
              (fun (p : Simsweep.Exhaustive.pair) ->
                let alone = Array.make num_tags Simsweep.Exhaustive.Invalid in
                plain_window g { job with pairs = [ p ] } alone;
                Simsweep.Exhaustive.prove_on_windows
                  (Simsweep.Exhaustive.new_stats ())
                  g ~windows:[ job.inputs ] ~a:p.a ~b:p.b ~compl_:p.compl_
                = (alone.(p.tag) = Simsweep.Exhaustive.Proved))
              job.pairs)
          jobs
      in
      got = expected
      && stats.Simsweep.Exhaustive.small_windows = List.length jobs
      && alone_agrees)

(* Jobs of 11 to 14 inputs, which the simulation table answers: every
   PI of a 9-PI network plus internal nodes, so each cone is bounded and
   some roots sit on the window's inputs.  Pairs compare random nodes, a
   node with itself, or a node with the constant.  A window's rows are
   its inputs and its cone, so [rows] sizes the budgets exactly. *)
let gen_table_jobs =
  QCheck.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* njobs = int_range 1 3 in
    let* specs =
      list_repeat njobs
        (let* width = int_range 11 14 in
         let* extra = list_repeat 12 (int_range 0 1000) in
         let* pairs =
           list_size (int_range 1 4)
             (triple (int_range 0 1000) (int_range 0 2) (pair (int_range 0 1000) bool))
         in
         return (width, extra, pairs))
    in
    return (seed, specs))

let prop_table_matches_plain =
  QCheck.Test.make ~name:"table path matches a plain evaluator" ~count:25
    (QCheck.make gen_table_jobs) (fun (seed, specs) ->
      let g = Util.random_network ~pis:9 ~nodes:80 ~pos:3 seed in
      let n = Aig.Network.num_nodes g in
      let pis = List.init (Aig.Network.num_pis g) (Aig.Network.pi g) in
      let tag = ref 0 in
      let jobs =
        List.map
          (fun (width, extra, pairs) ->
            (* Internal nodes only: PIs are already in, node 0 is the constant. *)
            let extra =
              List.map (fun x -> x mod n) extra
              |> List.filter (fun x -> x > 0 && not (List.mem x pis))
              |> List.sort_uniq compare
            in
            let inputs =
              List.sort_uniq compare (pis @ List.filteri (fun i _ -> i < width - 9) extra)
              |> Array.of_list
            in
            let pairs =
              List.map
                (fun (a, kind, (b, compl_)) ->
                  (* Node 0, the constant, would leave the cone unbounded. *)
                  let a = 1 + (a mod (n - 1)) in
                  let b = match kind with 0 -> 1 + (b mod (n - 1)) | 1 -> a | _ -> -1 in
                  incr tag;
                  { Simsweep.Exhaustive.a; b; compl_; tag = !tag - 1 })
                pairs
            in
            { Simsweep.Exhaustive.inputs; pairs })
          specs
      in
      let num_tags = !tag in
      let expected = Array.make num_tags Simsweep.Exhaustive.Invalid in
      List.iter (fun job -> plain_window g job expected) jobs;
      let rows (job : Simsweep.Exhaustive.job) =
        let roots =
          List.concat_map (fun (p : Simsweep.Exhaustive.pair) -> [ p.a; p.b ]) job.pairs
          |> List.filter (fun x -> x > 0 && not (Array.mem x job.inputs))
        in
        match Aig.Cone.extract g ~roots:(Array.of_list roots) ~inputs:job.inputs with
        | Some w -> Array.length w.Aig.Cone.inputs + Array.length w.Aig.Cone.nodes
        | None -> 0
      in
      let total_rows = List.fold_left (fun acc job -> acc + rows job) 0 jobs in
      (* Budget 1 runs each window alone with E = 1; 8 rows per window row
         puts them in one chunk with E = 4; 2^22 holds every whole table. *)
      List.for_all
        (fun memory_words ->
          let stats = Simsweep.Exhaustive.new_stats () in
          let got =
            Util.with_pool (fun pool ->
                Simsweep.Exhaustive.run g ~pool ~memory_words ~stats ~jobs ~num_tags ())
          in
          got = expected
          && stats.Simsweep.Exhaustive.small_windows = 0
          && Array.for_all (fun (j : Simsweep.Exhaustive.job) -> Array.length j.inputs > 10)
               (Array.of_list jobs))
        [ 1; 8 * total_rows; 1 lsl 22 ])

let () =
  Alcotest.run "exhaustive"
    [
      ( "unit",
        [
          Alcotest.test_case "simple pair" `Quick test_simple_pair;
          Alcotest.test_case "const target" `Quick test_const_target;
          Alcotest.test_case "invalid window" `Quick test_invalid_window;
          Alcotest.test_case "root is input" `Quick test_root_is_input;
          Alcotest.test_case "multi-round tiny memory" `Quick test_multi_round_tiny_memory;
          Alcotest.test_case "stats" `Quick test_stats_accounting;
          Alcotest.test_case "arena mixed batches" `Quick test_arena_mixed_batches;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_truth_tables;
            prop_budget_independent;
            prop_small_evaluator_matches_plain;
            prop_table_matches_plain;
          ] );
    ]
