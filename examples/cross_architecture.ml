(* Cross-architecture datapath verification.

   Verifying two genuinely different implementations — an array multiplier
   against a Wallace-tree multiplier — is the hard version of CEC: the two
   circuits share almost no internal structure, so internal equivalences
   are scarce and the checker has to earn the proof.  The example also
   shows output partitioning on a multi-unit design (two independent ALUs,
   two support groups, checked with the shard plan in-process).

       dune exec examples/cross_architecture.exe *)

let () =
  let pool = Par.Pool.create () in

  (* 1. Array vs Wallace multiplier. *)
  let bits = 7 in
  let array_mult = Gen.Arith.multiplier ~bits in
  let wallace = Gen.Wallace.multiplier ~bits in
  Printf.printf "array:   %s\nwallace: %s\n"
    (Format.asprintf "%a" Aig.Stats.pp (Aig.Stats.of_network array_mult))
    (Format.asprintf "%a" Aig.Stats.pp (Aig.Stats.of_network wallace));
  let miter = Aig.Miter.build array_mult wallace in
  let t0 = Unix.gettimeofday () in
  let c = Simsweep.Engine.check_with_fallback ~pool miter in
  Printf.printf "array vs wallace: %s in %.3fs (engine reduced %.1f%%, SAT %s)\n\n"
    (match c.Simsweep.Engine.final with
    | Simsweep.Engine.Proved -> "EQUIVALENT"
    | Simsweep.Engine.Disproved _ -> "NOT EQUIVALENT"
    | Simsweep.Engine.Undecided -> "UNDECIDED")
    (Unix.gettimeofday () -. t0)
    (Simsweep.Engine.reduction_percent c.Simsweep.Engine.engine)
    (if c.Simsweep.Engine.sat = None then "not needed" else "finished the rest");

  (* 2. Output partitioning on a two-unit design: the summary counts the
     support groups. *)
  let dual_alu = Gen.Double.double (Gen.Alu.alu ~bits:6) in
  let optimized = Opt.Resyn.light dual_alu in
  let miter = Aig.Miter.build dual_alu optimized in
  Printf.printf "dual ALU miter: %d outputs\n" (Aig.Network.num_pos miter);
  let t0 = Unix.gettimeofday () in
  let summary =
    match Shell.Engines.run ~pool Shell.Engines.Partitioned miter with
    | Ok r -> r.Shell.Engines.summary
    | Error e -> e
  in
  Printf.printf "partitioned check: %s in %.3fs\n" summary
    (Unix.gettimeofday () -. t0);
  Par.Pool.shutdown pool
