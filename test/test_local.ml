(* Local function checking (Algorithm 2): soundness of every merge it
   reports, behaviour on SDC-induced mismatches, and the in-place window
   checks against a reference pass that buffers the cuts and checks them
   afterwards. *)

let make_classes pool g seed =
  let rng = Sim.Rng.create ~seed in
  let sigs = Sim.Psim.run g ~nwords:4 ~rng ~pool ~embed:[] in
  Sim.Eclass.of_sigs g sigs ()

let run_pass ?(cfg = Simsweep.Config.default) ?(pass = Cuts.Criteria.Fanout_first) g classes =
  Util.with_pool (fun pool ->
      let stats = Simsweep.Exhaustive.new_stats () in
      Simsweep.Local.run_pass cfg ~pass ~pool ~stats g classes)

let test_proves_xor_pair () =
  (* Two XOR decompositions deep inside a shared cone: a common cut of the
     pair proves them without touching the PIs. *)
  let g = Aig.Network.create () in
  let pis = Array.init 10 (fun _ -> Aig.Network.add_pi g) in
  (* Shared lower structure. *)
  let f = Aig.Network.add_and g pis.(0) pis.(1) in
  let h = Aig.Network.add_and g pis.(2) (Aig.Lit.neg pis.(3)) in
  let x1 = Aig.Network.add_xor g f h in
  let u = Aig.Network.add_and g f (Aig.Lit.neg h) in
  let v = Aig.Network.add_and g (Aig.Lit.neg f) h in
  let x2 = Aig.Lit.neg (Aig.Network.add_and g (Aig.Lit.neg u) (Aig.Lit.neg v)) in
  Aig.Network.add_po g x1;
  Aig.Network.add_po g x2;
  Util.with_pool (fun pool ->
      let classes = make_classes pool g 7L in
      let result = run_pass g classes in
      (* The pair (node x1, node x2) must be provable locally. *)
      let proved_x2 =
        List.exists
          (fun (m, target) ->
            m = Aig.Lit.node x2
            && Aig.Lit.node target = Aig.Lit.node x1
            && Aig.Lit.is_compl target = Aig.Lit.is_compl x2)
          result.Simsweep.Local.proved
      in
      Alcotest.(check bool) "x2 proved against x1" true proved_x2)

let prop_merges_sound =
  QCheck.Test.make ~name:"every local merge is functionally correct" ~count:30
    Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let g0 = Util.random_network ~pis:7 ~nodes:50 ~pos:4 seed in
          let g = Aig.Miter.build g0 (Opt.Xorflip.run g0) in
          if Aig.Network.num_pis g > 16 then true
          else begin
            let classes = make_classes pool g (Int64.of_int seed) in
            let result = run_pass g classes in
            List.for_all
              (fun (m, target) ->
                let tm = Util.global_tt g (Aig.Lit.make m false) in
                let tt = Util.global_tt g target in
                Bv.Tt.equal tm tt)
              result.Simsweep.Local.proved
          end))

let test_sdc_inconclusive () =
  (* Paper Fig. 2 flavour: two nodes whose local functions differ on a cut
     only at SDC patterns; that cut must be inconclusive rather than a
     disproof, and the pass must simply not report the pair. *)
  let g = Aig.Network.create () in
  let x = Aig.Network.add_pi g and y = Aig.Network.add_pi g and z = Aig.Network.add_pi g in
  let n1 = Aig.Network.add_or g x y in
  let n2 = Aig.Network.add_and g y z in
  (* n3 = n1 & n2; the cut {n1, n2} has SDC (n1=0, n2=1). *)
  let n3 = Aig.Network.add_and g n1 n2 in
  (* m = y & z = n2, and also m = n3 | (y & z & !x)… keep it simple:
     n3 = n1 & n2 = (x|y) & y & z = y & z = n2 globally! *)
  Aig.Network.add_po g n3;
  Aig.Network.add_po g n2;
  Util.with_pool (fun pool ->
      let classes = make_classes pool g 99L in
      (* n3 and n2 simulate identically (they are equal): they share a
         class, and the local pass may or may not prove them depending on
         the cut; what must NOT happen is a wrong merge. *)
      let result = run_pass g classes in
      List.iter
        (fun (m, target) ->
          let tm = Util.global_tt g (Aig.Lit.make m false) in
          let tt = Util.global_tt g target in
          Alcotest.(check bool) "sound under SDCs" true (Bv.Tt.equal tm tt))
        result.Simsweep.Local.proved)

(* The L pass with Algorithm 2's common-cut buffer: every level's cuts
   are enumerated first, every pair's windows buffered in node order, and
   each buffered cut then checked by its own [Exhaustive.run].  It also
   reports whether it met a constant candidate and a common cut holding
   the representative itself. *)
let reference_pass (cfg : Simsweep.Config.t) ~pass ~pool g classes =
  let n = Aig.Network.num_nodes g in
  let repr = Array.init n Fun.id and compl = Array.make n false in
  List.iter
    (fun c ->
      let r, _ = c.(0) in
      Array.iter
        (fun (m, ph) ->
          if m <> r then begin
            repr.(m) <- r;
            compl.(m) <- ph
          end)
        c)
    (Sim.Eclass.classes classes);
  let fanouts = Aig.Network.fanout_counts g and levels = Aig.Network.levels g in
  let el =
    Cuts.Enumerate.enum_levels g ~repr_of:(fun i ->
        if Aig.Network.is_and g i then repr.(i) else i)
  in
  let prio = Array.make n [] in
  for i = 0 to Aig.Network.num_pis g - 1 do
    let p = Aig.Network.pi g i in
    prio.(p) <- [ Cuts.Cut.trivial p ]
  done;
  let ecfg = { Cuts.Enumerate.k_l = cfg.k_l; c = cfg.c } in
  let ands = ref [] in
  Aig.Network.iter_ands g (fun i -> ands := i :: !ands);
  let ands = List.stable_sort (fun a b -> compare el.(a) el.(b)) (List.rev !ands) in
  let buffer = ref [] and pairs_tried = ref 0 in
  let saw_const = ref false and saw_root_leaf = ref false in
  List.iter
    (fun m ->
      let r = repr.(m) in
      let sim_target =
        if cfg.similarity_selection && r <> m && r <> 0 then Some prio.(r) else None
      in
      prio.(m) <-
        Cuts.Enumerate.node_cuts g ecfg ~pass ~fanouts ~levels ~prio ~sim_target m;
      if r <> m then begin
        incr pairs_tried;
        let cuts, b =
          if r = 0 then (prio.(m), -1)
          else (Cuts.Enumerate.common_cuts ~k_l:cfg.k_l prio.(r) prio.(m), r)
        in
        if r = 0 && cuts <> [] then saw_const := true;
        if List.exists (fun cut -> Array.mem r cut) cuts then saw_root_leaf := true;
        List.iter (fun cut -> buffer := (cut, m, b) :: !buffer) cuts
      end)
    ands;
  let proved = ref [] and marked = Array.make n false in
  List.iter
    (fun (cut, m, b) ->
      let job =
        {
          Simsweep.Exhaustive.inputs = cut;
          pairs = [ { Simsweep.Exhaustive.a = m; b; compl_ = compl.(m); tag = 0 } ];
        }
      in
      let v =
        Simsweep.Exhaustive.run g ~pool ~memory_words:cfg.memory_words ~jobs:[ job ]
          ~num_tags:1 ()
      in
      if v.(0) = Simsweep.Exhaustive.Proved && not marked.(m) then begin
        marked.(m) <- true;
        let target =
          if b < 0 then Aig.Lit.xor_compl Aig.Lit.const_false compl.(m)
          else Aig.Lit.make b compl.(m)
        in
        proved := (m, target) :: !proved
      end)
    (List.rev !buffer);
  ( {
      Simsweep.Local.proved = !proved;
      pairs_tried = !pairs_tried;
      cuts_checked = List.length !buffer;
    },
    !saw_const,
    !saw_root_leaf )

(* A random network with two gadgets on its outputs: a constant-false node
   that is structurally alive, and [m = (r & z) | (r & !z)], equal to
   [r] and built on top of it, so that [r] is a leaf of [m]'s cuts and of
   the pair's common cuts. *)
let gadget_network seed =
  let g = Util.random_network ~pis:7 ~nodes:50 ~pos:4 seed in
  let pi i = Aig.Network.pi g i in
  let a = Aig.Lit.make (pi 0) false and b = Aig.Lit.make (pi 1) false in
  let z = Aig.Lit.make (pi 2) false in
  let u = Aig.Network.add_and g a b and v = Aig.Network.add_and g a (Aig.Lit.neg b) in
  Aig.Network.add_po g (Aig.Network.add_and g u v);
  let r = Aig.Network.add_and g (Aig.Lit.make (pi 3) false) (Aig.Lit.make (pi 4) true) in
  let m =
    Aig.Network.add_or g (Aig.Network.add_and g r z)
      (Aig.Network.add_and g r (Aig.Lit.neg z))
  in
  Aig.Network.add_po g (Aig.Network.add_xor g m (Aig.Lit.make (pi 5) false));
  g

let prop_matches_reference_pass =
  QCheck.Test.make ~name:"in-place pass matches buffered reference"
    ~count:25 Util.arb_seed (fun seed ->
      let g0 = gadget_network seed in
      let g = Aig.Miter.build g0 (Opt.Xorflip.run g0) in
      Util.with_pool (fun pool ->
          let classes = make_classes pool g (Int64.of_int seed) in
          let cfg = Simsweep.Config.default in
          List.for_all
            (fun pass ->
              let stats = Simsweep.Exhaustive.new_stats () in
              let got = Simsweep.Local.run_pass cfg ~pass ~pool ~stats g classes in
              let want, saw_const, saw_root_leaf = reference_pass cfg ~pass ~pool g classes in
              if not (saw_const && saw_root_leaf) then
                QCheck.Test.fail_reportf "seed %d: a gadget was not exercised" seed;
              got = want
              && stats.Simsweep.Exhaustive.windows = want.Simsweep.Local.cuts_checked)
            Cuts.Criteria.table1))

let test_const_candidates () =
  (* A node that is constant false but structurally alive: local checking
     proves it against the constant. *)
  let g = Aig.Network.create () in
  let a = Aig.Network.add_pi g and b = Aig.Network.add_pi g in
  let u = Aig.Network.add_and g a b in
  let v = Aig.Network.add_and g a (Aig.Lit.neg b) in
  (* u & v = a & b & !b = 0, structurally non-trivial. *)
  let w = Aig.Network.add_and g u v in
  Aig.Network.add_po g w;
  Util.with_pool (fun pool ->
      let classes = make_classes pool g 11L in
      let result = run_pass g classes in
      let proved_const =
        List.exists
          (fun (m, target) -> m = Aig.Lit.node w && target = Aig.Lit.const_false)
          result.Simsweep.Local.proved
      in
      Alcotest.(check bool) "constant node proved" true proved_const)

let test_three_passes_distinct () =
  (* The three Table I passes generate different cut sets; at minimum they
     must all be sound and their pair counts must agree. *)
  let g0 = Util.random_network ~pis:6 ~nodes:70 ~pos:4 21 in
  let g = Aig.Miter.build g0 (Opt.Xorflip.run g0) in
  Util.with_pool (fun pool ->
      let classes = make_classes pool g 5L in
      let counts =
        List.map
          (fun pass ->
            let r = run_pass ~pass g classes in
            Alcotest.(check bool) "proved within tried" true
              (List.length r.Simsweep.Local.proved <= r.Simsweep.Local.pairs_tried);
            Alcotest.(check bool) "cuts checked" true (r.Simsweep.Local.cuts_checked > 0);
            r.Simsweep.Local.pairs_tried)
          Cuts.Criteria.table1
      in
      match counts with
      | [ a; b; c ] ->
          Alcotest.(check bool) "same candidate pairs" true (a = b && b = c)
      | _ -> Alcotest.fail "expected three passes")

let () =
  Alcotest.run "local"
    [
      ( "unit",
        [
          Alcotest.test_case "proves xor pair" `Quick test_proves_xor_pair;
          Alcotest.test_case "sdc inconclusive" `Quick test_sdc_inconclusive;
          Alcotest.test_case "const candidates" `Quick test_const_candidates;
          Alcotest.test_case "three passes" `Quick test_three_passes_distinct;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_merges_sound; prop_matches_reference_pass ] );
    ]
