(* Support groups of the shard planner, and the [partitioned] engine. *)

let test_groups_doubled () =
  (* A doubled adder has two independent halves: exactly two groups. *)
  let g = Gen.Double.double (Gen.Arith.adder ~bits:4) in
  let gs = Shard.Plan.groups g in
  Alcotest.(check int) "two groups" 2 (List.length gs);
  let sizes = List.map (fun (pos, _) -> List.length pos) gs |> List.sort compare in
  Alcotest.(check (list int)) "five POs each" [ 5; 5 ] sizes

let test_groups_cover_all () =
  let g = Gen.Control.regfile ~regs:4 ~width:4 in
  let all = List.concat_map fst (Shard.Plan.groups g) |> List.sort compare in
  Alcotest.(check (list int)) "all POs covered"
    (List.init (Aig.Network.num_pos g) Fun.id)
    all

let test_sized_groups () =
  (* A miter of several groups, plus an AND outside every cone, a PO on a
     bare PI and a constant PO: the one-pass counts are each group's cone,
     the size of its extracted sub-network. *)
  let g = Gen.Control.regfile ~regs:4 ~width:4 in
  let m = Gen.Double.times 2 (Aig.Miter.build g (Opt.Resyn.light g)) in
  let pi i = Aig.Lit.make (Aig.Network.pi m i) false in
  ignore (Aig.Network.add_and_raw m (pi 0) (Aig.Lit.neg (pi 1)));
  Aig.Network.add_po m (pi 0);
  Aig.Network.add_po m Aig.Lit.const_false;
  let npos = Aig.Network.num_pos m in
  let sized = Shard.Plan.groups m in
  Alcotest.(check (list int)) "every PO in one group" (List.init npos Fun.id)
    (List.sort compare (List.concat_map fst sized));
  Alcotest.(check bool) "several groups" true (List.length sized >= 4);
  Alcotest.(check (pair (list int) int)) "constant PO first, no cone"
    ([ npos - 1 ], 0) (List.hd sized);
  Alcotest.(check bool) "PO on a bare PI joins its PI's group" true
    (List.exists (fun (pos, _) -> List.mem (npos - 2) pos && List.length pos > 1) sized);
  Alcotest.(check int) "dangling AND in no cone" (Aig.Network.num_ands m - 1)
    (List.fold_left (fun acc (_, ands) -> acc + ands) 0 sized);
  List.iter
    (fun (pos, ands) ->
      Alcotest.(check int) "cone ands"
        (Aig.Network.num_ands (fst (Aig.Cone.restrict m pos)))
        ands)
    sized

(* [Aig.Cone.restrict], as the planner extracts one group's sub-miter: the
   sub-network of the listed POs, with each sub-PI's original PI index. *)
let test_extract () =
  let g = Gen.Double.double (Gen.Arith.adder ~bits:3) in
  (* Extract only the second copy's outputs (POs 4..7). *)
  let sub, origin = Aig.Cone.restrict g [ 4; 5; 6; 7 ] in
  Alcotest.(check int) "pis" 6 (Aig.Network.num_pis sub);
  Alcotest.(check int) "pos" 4 (Aig.Network.num_pos sub);
  (* Original PI indices of the second copy are 6..11. *)
  Alcotest.(check (list int)) "origin" [ 6; 7; 8; 9; 10; 11 ]
    (Array.to_list origin);
  (* The extracted network computes the same functions. *)
  for m = 0 to 63 do
    let sub_cex = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
    let full_cex = Array.make 12 false in
    Array.iteri (fun j orig -> full_cex.(orig) <- sub_cex.(j)) origin;
    for k = 0 to 3 do
      if Sim.Cex.check sub sub_cex k <> Sim.Cex.check g full_cex (4 + k) then
        Alcotest.failf "extract mismatch m=%d k=%d" m k
    done
  done

(* The [partitioned] engine's outcome and support-group count. *)
let partitioned ?cancel ~pool m =
  match Shell.Engines.run ?cancel ~pool Shell.Engines.Partitioned m with
  | Ok { Shell.Engines.outcome; stats = [ ("partition_groups", Int n) ]; _ } ->
      (outcome, n)
  | _ -> Alcotest.fail "partitioned engine: unexpected report"

let test_partition_check_equivalent () =
  Util.with_pool (fun pool ->
      let g = Gen.Double.double (Gen.Arith.multiplier ~bits:4) in
      let m = Aig.Miter.build g (Opt.Resyn.light g) in
      let outcome, ngroups = partitioned ~pool m in
      Alcotest.(check bool) "proved" true (outcome = Simsweep.Engine.Proved);
      Alcotest.(check bool) "multiple groups" true (ngroups >= 2))

let test_partition_check_inequivalent () =
  Util.with_pool (fun pool ->
      let g = Gen.Double.double (Gen.Arith.adder ~bits:3) in
      let bad = Aig.Network.copy g in
      (* Break an output in the SECOND half: the lifted CEX must still
         validate on the full miter. *)
      Aig.Network.set_po bad 6 (Aig.Lit.neg (Aig.Network.po bad 6));
      let m = Aig.Miter.build g bad in
      match partitioned ~pool m with
      | Simsweep.Engine.Disproved (cex, po), _ ->
          Alcotest.(check int) "right PO" 6 po;
          Alcotest.(check bool) "lifted CEX valid" true (Sim.Cex.check m cex po)
      | _ -> Alcotest.fail "expected disproof")

let test_partition_check_cancelled_single_group () =
  Util.with_pool (fun pool ->
      (* One PO, one support group: an already-expired deadline must be
         honoured inside the group's engine/SAT fallback, not only at the
         (non-existent) next group boundary.  The miter is equivalent, so
         anything but Undecided means the token was ignored. *)
      let g = Gen.Control.random_logic ~pis:10 ~nodes:200 ~pos:1 ~seed:7L in
      let m = Aig.Miter.build g (Opt.Resyn.light g) in
      Alcotest.(check int) "single group" 1
        (List.length (Shard.Plan.groups m));
      let cancel = Par.Cancel.create ~deadline_in:0.0 () in
      let outcome, _ = partitioned ~cancel ~pool m in
      Alcotest.(check bool) "undecided under expired deadline" true
        (outcome = Simsweep.Engine.Undecided))

let prop_partition_agrees =
  QCheck.Test.make ~name:"partitioned check = monolithic check" ~count:15
    Util.arb_seed (fun seed ->
      Util.with_pool (fun pool ->
          let half1 = Util.random_network ~pis:4 ~nodes:25 ~pos:2 seed in
          let half2 = Util.random_network ~pis:4 ~nodes:25 ~pos:2 (seed + 1) in
          (* Two independent halves glued into one network. *)
          let g = Aig.Network.create () in
          let p1 = Array.init 4 (fun _ -> Aig.Network.add_pi g) in
          let p2 = Array.init 4 (fun _ -> Aig.Network.add_pi g) in
          Array.iter (Aig.Network.add_po g) (Aig.Miter.append g half1 ~pi_map:p1);
          Array.iter (Aig.Network.add_po g) (Aig.Miter.append g half2 ~pi_map:p2);
          let opt = if seed mod 2 = 0 then Opt.Xorflip.run g else Aig.Network.copy g in
          let opt =
            if seed mod 3 = 0 then begin
              let b = Aig.Network.copy opt in
              Aig.Network.set_po b 1 (Aig.Lit.neg (Aig.Network.po b 1));
              b
            end
            else opt
          in
          let m = Aig.Miter.build g opt in
          let mono = (Simsweep.Engine.check_with_fallback ~pool m).Simsweep.Engine.final in
          let part, _ = partitioned ~pool m in
          match (mono, part) with
          | Simsweep.Engine.Proved, Simsweep.Engine.Proved -> true
          | Simsweep.Engine.Disproved _, Simsweep.Engine.Disproved (cex, po) ->
              Sim.Cex.check m cex po
          | _ -> false))

let () =
  Alcotest.run "partition"
    [
      ( "partition",
        [
          Alcotest.test_case "groups doubled" `Quick test_groups_doubled;
          Alcotest.test_case "groups cover" `Quick test_groups_cover_all;
          Alcotest.test_case "sized groups" `Quick test_sized_groups;
          Alcotest.test_case "extract" `Quick test_extract;
          Alcotest.test_case "check equivalent" `Quick test_partition_check_equivalent;
          Alcotest.test_case "check inequivalent" `Quick test_partition_check_inequivalent;
          Alcotest.test_case "check cancelled (single group)" `Quick
            test_partition_check_cancelled_single_group;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest [ prop_partition_agrees ] );
    ]
