(* The sweeping constants, ABC [&cec]-like: a conflict budget per
   pair-proving SAT call ([-C]), 64-bit words per partial-simulation
   signature, the simulation seed, a round cap, and the number of fresh
   counter-examples after which a round stops to resimulate. *)
let conflict_limit = 1000
let sim_words = 4
let seed = 0x5eedL
let max_rounds = 30
let cex_batch = 48

type outcome = Equivalent | Inequivalent of Sim.Cex.t * int | Undecided

type stats = {
  mutable sat_calls : int;
  mutable sat_unsat : int;
  mutable sat_sat : int;
  mutable sat_unknown : int;
  mutable merged : int;
  mutable rounds : int;
  mutable cex_count : int;
  mutable candidates : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable cnf_loads : int;
  mutable restarts : int;
  mutable reduce_dbs : int;
  mutable learnts_removed : int;
}

let new_stats () =
  {
    sat_calls = 0;
    sat_unsat = 0;
    sat_sat = 0;
    sat_unknown = 0;
    merged = 0;
    rounds = 0;
    cex_count = 0;
    candidates = 0;
    conflicts = 0;
    propagations = 0;
    cnf_loads = 0;
    restarts = 0;
    reduce_dbs = 0;
    learnts_removed = 0;
  }

(* Fold one solver's search counters into sweep stats. *)
let absorb_solver stats solver =
  stats.conflicts <- stats.conflicts + Solver.num_conflicts solver;
  stats.propagations <- stats.propagations + Solver.num_propagations solver;
  stats.restarts <- stats.restarts + Solver.num_restarts solver;
  stats.reduce_dbs <- stats.reduce_dbs + Solver.num_reduce_dbs solver;
  stats.learnts_removed <-
    stats.learnts_removed + Solver.num_learnts_removed solver

(* Prove [target = repr_lit] on [g] through two SAT calls; [solver] holds
   the CNF of [g].  Returns [`Proved], [`Cex assignment] or [`Unknown]. *)
let prove_pair solver stats ?cancel g repr_lit target =
  let a = Cnf.lit repr_lit and b = Cnf.lit target in
  let query assumptions =
    stats.sat_calls <- stats.sat_calls + 1;
    match Solver.solve ~assumptions ~conflict_limit ?cancel solver with
    | Solver.Unsat ->
        stats.sat_unsat <- stats.sat_unsat + 1;
        `Unsat
    | Solver.Sat ->
        stats.sat_sat <- stats.sat_sat + 1;
        `Sat (Cnf.cex g (Solver.model_value solver))
    | Solver.Unknown ->
        stats.sat_unknown <- stats.sat_unknown + 1;
        `Unknown
  in
  (* repr_lit may be constant false (merging into the constant class). *)
  let first =
    if repr_lit = Aig.Lit.const_false then `Unsat
    else if repr_lit = Aig.Lit.const_true then query [ Solver.neg b ]
    else query [ a; Solver.neg b ]
  in
  match first with
  | `Sat cex -> `Cex cex
  | `Unknown -> `Unknown
  | `Unsat -> (
      let second =
        if repr_lit = Aig.Lit.const_false then query [ b ]
        else if repr_lit = Aig.Lit.const_true then `Unsat
        else query [ Solver.neg a; b ]
      in
      match second with
      | `Sat cex -> `Cex cex
      | `Unknown -> `Unknown
      | `Unsat -> `Proved)

(* The shared sweeping core: round-based class refinement and SAT merging,
   returning the reduced network.  [check] adds the final PO decision on
   top; [fraig] returns the network as an optimisation result.

   Each round proves its candidate pairs in pair-index order on one
   incremental solver (learnt clauses carry from pair to pair) and
   commits every verdict as it goes, until [cex_batch] fresh
   counter-examples call for resimulation.  Only partial simulation uses
   the pool, so the result is bit-identical for any pool size. *)
let sweep_core ?classes ?cancel ~pool ~stats g0 =
  let rng = Sim.Rng.create ~seed in
  let g = ref g0 in
  let carried_classes = ref classes in
  let pending_cexs = ref [] in
  let finished = ref false in
  let round = ref 0 in
  while
    (not !finished) && !round < max_rounds
    && not (Par.Cancel.poll_opt cancel)
  do
    incr round;
    stats.rounds <- stats.rounds + 1;
    let sigs =
      Sim.Psim.run !g ~nwords:sim_words ~rng ~pool ~embed:!pending_cexs
    in
    pending_cexs := [];
    let classes =
      match !carried_classes with
      | Some c ->
          carried_classes := None;
          Sim.Eclass.refine c sigs
      | None -> Sim.Eclass.of_sigs !g sigs ()
    in
    let pairs =
      Sim.Eclass.pairs classes
      |> List.sort (fun a b -> compare a.Sim.Eclass.other b.Sim.Eclass.other)
      |> Array.of_list
    in
    let n = Array.length pairs in
    if n = 0 then finished := true
    else begin
      let cur = !g in
      let repl = Array.make (Aig.Network.num_nodes cur) None in
      let fresh_cexs = ref 0 in
      let merged_round = ref 0 in
      (* A deadline that expired during simulation skips the CNF load. *)
      if not (Par.Cancel.poll_opt cancel) then begin
        let solver = Solver.create () in
        stats.cnf_loads <- stats.cnf_loads + 1;
        let loaded = Cnf.load solver cur in
        assert loaded;
        let i = ref 0 in
        while
          !i < n && !fresh_cexs < cex_batch
          && not (Par.Cancel.poll_opt cancel)
        do
          let { Sim.Eclass.repr; other; compl_ } = pairs.(!i) in
          stats.candidates <- stats.candidates + 1;
          let repr_lit = Aig.Lit.make repr compl_ in
          let target = Aig.Lit.make other false in
          let merge () =
            if repl.(other) = None then begin
              repl.(other) <- Some repr_lit;
              incr merged_round;
              stats.merged <- stats.merged + 1
            end
          in
          (match prove_pair solver stats ?cancel cur repr_lit target with
          | `Proved -> merge ()
          | `Cex cex ->
              stats.cex_count <- stats.cex_count + 1;
              incr fresh_cexs;
              pending_cexs := cex :: !pending_cexs
          | `Unknown -> ());
          incr i
        done;
        absorb_solver stats solver
      end;
      if !merged_round > 0 then begin
        let r = Aig.Reduce.apply cur ~repl in
        g := r.Aig.Reduce.network
      end;
      (* Fixed point: nothing merged and no new counter-example. *)
      if !merged_round = 0 && !fresh_cexs = 0 then finished := true
    end
  done;
  !g

(* The final per-output check: one SAT call per PO of [pos] under the
   assumption that it is true, in order.  The first SAT answer is a
   counter-example, read from the variable values [model ()] returns; an
   Unknown ends the check undecided.  Counts the calls in [stats] and absorbs the solver's
   counters. *)
let check_pos ?(conflict_limit = max_int) ?cancel ~stats ~model solver g pos =
  let rec go = function
    | [] -> Equivalent
    | po :: rest -> (
        stats.sat_calls <- stats.sat_calls + 1;
        let l = Cnf.lit (Aig.Network.po g po) in
        match Solver.solve ~assumptions:[ l ] ~conflict_limit ?cancel solver with
        | Solver.Unsat ->
            stats.sat_unsat <- stats.sat_unsat + 1;
            go rest
        | Solver.Sat ->
            stats.sat_sat <- stats.sat_sat + 1;
            Inequivalent (Cnf.cex g (model ()), po)
        | Solver.Unknown ->
            stats.sat_unknown <- stats.sat_unknown + 1;
            Undecided)
  in
  let r = go pos in
  absorb_solver stats solver;
  r

let check ?classes ?cancel ~pool g0 =
  let stats = new_stats () in
  let g = sweep_core ?classes ?cancel ~pool ~stats g0 in
  (* Final PO checking on the reduced miter. *)
  let outcome =
    if Aig.Miter.solved g then Equivalent
    else if Par.Cancel.poll_opt cancel then Undecided
    else begin
      let solver = Solver.create () in
      stats.cnf_loads <- stats.cnf_loads + 1;
      if not (Cnf.load solver g) then Equivalent
      else
        check_pos ?cancel ~stats
          ~model:(fun () -> Solver.model_value solver)
          solver g (Aig.Miter.unsolved_outputs g)
    end
  in
  (outcome, stats)

let fraig ?cancel ~pool g =
  let stats = new_stats () in
  (* Work on a copy: sweeping mutates nothing, but Reduce renumbers. *)
  let reduced = sweep_core ?cancel ~pool ~stats (Aig.Network.copy g) in
  (reduced, stats)

let check_direct ?(simplify = true) ?conflict_limit ?cancel g =
  if Aig.Miter.solved g then Equivalent
  else begin
    let pos = Aig.Miter.unsolved_outputs g in
    let solver, model =
      if simplify then begin
        (* Preprocess with the unsolved PO variables frozen (they are
           assumed one by one); every other variable, PIs included, may be
           eliminated, and counter-example values for eliminated PIs come
           back through model reconstruction. *)
        let frozen =
          List.filter_map
            (fun po ->
              let l = Aig.Network.po g po in
              if Aig.Network.is_const (Aig.Lit.node l) then None
              else Some (Solver.var_of_lit (Cnf.lit l)))
            pos
        in
        let r =
          Simplify.run ?cancel ~nvars:(Aig.Network.num_nodes g) ~frozen (Cnf.clauses g)
        in
        (r.Simplify.solver, fun () -> Array.get (Simplify.model r))
      end
      else begin
        let solver = Solver.create () in
        ignore (Cnf.load solver g);
        (solver, fun () -> Solver.model_value solver)
      end
    in
    check_pos ?conflict_limit ?cancel ~stats:(new_stats ()) ~model solver g pos
  end
