(* CEC benchmark: time to verdict per engine on miters with known answers.

     python3 perfbench/run.py --workload arith-table2 --seed 3 --seconds 20 --trace 0

   builds this executable from the checkout and runs it from the checkout
   root.  One process, one Par.Pool of [domains] domains, one client
   running one check at a time (closed loop).  --trace 0 runs a fixed
   number of rounds of every engine over the miters, as many as fit
   --seconds on a 2-vCPU host, and reports end-to-end metrics (per engine:
   the sum over the equivalent miters of each miter's fastest time);
   --trace 1 runs one round with the flow replayed layer by layer
   (Replay) and reports per-layer metrics.  The last stdout line is one
   JSON object; everything above it is the human-readable report. *)

let domains = 2

(* A check still running after this long is cancelled and counted as
   failed, so a hang cannot stall the run. *)
let deadline_s = 30.

let setup_repeats = 9
let now = Unix.gettimeofday

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean l =
  match l with
  | [] -> 0.
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))

(* ------------------------------------------------------------- engines *)

type engine = Flow | Satsweep | Portfolio | Shard

let engines = [ Flow; Satsweep; Portfolio; Shard ]

let engine_name = function
  | Flow -> "flow"
  | Satsweep -> "satsweep"
  | Portfolio -> "portfolio"
  | Shard -> "shard"

type verdict = Outcome of Simsweep.Engine.outcome | Raised of string

(* Runs [f cancel] under a fresh deadline token; returns the verdict and
   the wall-clock time. *)
let guarded f =
  let cancel = Par.Cancel.create ~deadline_in:deadline_s () in
  let t0 = now () in
  let v = try Outcome (f cancel) with e -> Raised (Printexc.to_string e) in
  (v, now () -. t0)

(* The entry points the `cec` CLI runs: the default flow, -e sat,
   -e portfolio (sequential; a race degrades to it on 2 cores) and
   --shard 2 with the default shard config.  The [on_*] callbacks receive
   the engine's own telemetry. *)
let run_check ~pool ?(on_flow = ignore) ?(on_portfolio = ignore) ?(on_sat = ignore)
    ?(on_shard = ignore) engine miter =
  guarded (fun cancel ->
      match engine with
      | Flow ->
          let c =
            Simsweep.Engine.check_with_fallback ~config:Simsweep.Config.scaled
              ~transfer_classes:true ~cancel ~pool miter
          in
          on_flow c.Simsweep.Engine.engine.Simsweep.Engine.stats;
          c.Simsweep.Engine.final
      | Satsweep ->
          let o, st = Sat.Sweep.check ~cancel ~pool miter in
          on_sat st;
          Replay.to_outcome o
      | Portfolio ->
          let r = Simsweep.Portfolio.check ~mode:`Sequential ~cancel ~pool miter in
          on_portfolio r;
          r.Simsweep.Portfolio.outcome
      | Shard ->
          let o, st = Shard.Check.check ~cancel miter in
          on_shard st;
          o)

(* A check fails when its verdict is wrong, undecided, late or an
   exception, or when its counter-example does not replay on the miter. *)
let failed (m : Inputs.miter) net (v, time) =
  time > deadline_s
  ||
  match v with
  | Raised _ | Outcome Simsweep.Engine.Undecided -> true
  | Outcome Simsweep.Engine.Proved -> not m.Inputs.equivalent
  | Outcome (Simsweep.Engine.Disproved (cex, po)) ->
      m.Inputs.equivalent || not (Inputs.cex_replays net cex po)

let verdict_string = function
  | Raised e -> "raised " ^ e
  | Outcome Simsweep.Engine.Proved -> "proved"
  | Outcome (Simsweep.Engine.Disproved (_, po)) -> Printf.sprintf "disproved@%d" po
  | Outcome Simsweep.Engine.Undecided -> "undecided"

(* Counts attempted and failed checks, printing each failure. *)
type tally = { mutable attempted : int; mutable nfailed : int }

let score ?(report = true) tally what (m : Inputs.miter) net r =
  tally.attempted <- tally.attempted + 1;
  if failed m net r then begin
    tally.nfailed <- tally.nfailed + 1;
    if report then
      Printf.printf "FAILED %s on %s: %s after %.3fs\n%!" what m.Inputs.label
        (verdict_string (fst r)) (snd r)
  end

(* The scorer must catch two liars, each scored through [score] like an
   engine.  One answers Proved everywhere and must fail exactly the twins.
   The other answers Disproved everywhere, with an input and an output
   that input leaves false, so its CEX never replays: it must fail every
   check, the twins through the replay.  (On a twin whose output is true
   under every pattern tried, it answers Proved instead.) *)
let liar_self_test miters nets =
  let twins = List.length (List.filter (fun m -> not m.Inputs.equivalent) miters) in
  let liar name answer expected =
    let t = { attempted = 0; nfailed = 0 } in
    List.iter2 (fun m net -> score ~report:false t name m net (answer net, 0.)) miters nets;
    Printf.printf "liar self-test: %s fails %d of %d checks (fail_ratio %.3f)\n" name t.nfailed
      t.attempted
      (float_of_int t.nfailed /. float_of_int t.attempted);
    if t.nfailed <> expected then failwith ("liar self-test: the scorer missed a wrong verdict of " ^ name)
  in
  if twins = 0 then failwith "liar self-test: the workload has no inequivalent miter";
  liar "always-Proved" (fun _ -> Outcome Simsweep.Engine.Proved) twins;
  liar "bogus-CEX"
    (fun net ->
      match Inputs.false_output net with
      | Some (cex, po) -> Outcome (Simsweep.Engine.Disproved (cex, po))
      | None -> Outcome Simsweep.Engine.Proved)
    (List.length miters)

(* ---------------------------------------------------------------- setup *)

type setup = { read_s : float; miter_s : float; pool_s : float }

(* What a check pays before checking: both AIGER inputs parsed, the miter
   built, and a pool created. *)
let setup_once miters =
  let t0 = now () in
  let p = Par.Pool.create ~num_domains:domains () in
  let pool_s = now () -. t0 in
  Par.Pool.shutdown p;
  let read_s = ref 0. and miter_s = ref 0. in
  let nets =
    List.map
      (fun m ->
        let t0 = now () in
        let nets = List.map Aig.Aiger_io.of_string m.Inputs.files in
        let t1 = now () in
        let net = match nets with [ a; b ] -> Aig.Miter.build a b | [ d ] -> d | _ -> assert false in
        read_s := !read_s +. (t1 -. t0);
        miter_s := !miter_s +. (now () -. t1);
        net)
      miters
  in
  ({ read_s = !read_s; miter_s = !miter_s; pool_s }, nets)

(* Medians of set-up samples; the total is the median of the per-sample
   totals. *)
let setup_medians runs =
  let med f = median (List.map f runs) in
  ( { read_s = med (fun x -> x.read_s); miter_s = med (fun x -> x.miter_s); pool_s = med (fun x -> x.pool_s) },
    med (fun x -> x.read_s +. x.miter_s +. x.pool_s) )

let setup_sample miters =
  Gc.compact ();
  fst (setup_once miters)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

(* -------------------------------------------------------------- output *)

type metric = { mname : string; value : float; unit_ : string }

let json_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let ms =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname (num m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* -------------------------------------------------------- timed rounds *)

let bump h k = Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))

let overrun = 1.5

(* The flow runs three times per round: flow_s is the number later changes
   are asked to move, and its parallel, memory-bound phases make it the
   check most slowed by other tenants of the host, so it gets the most
   samples. *)
let flow_repeats = 3

(* Every engine runs [rounds] rounds, interleaved and in a rotating
   order, so that each engine's samples spread over the whole run.  The
   first round covers every miter, so every verdict is checked on every
   twin; later rounds repeat the equivalent miters, except the [untimed]
   (engine, miter) pairs.  An engine's metric is the sum over the miters
   it repeats of the miter's fastest time: on a shared
   host, interference only adds time, and the second vCPU comes and goes
   within a run (the flow on ac97_x64 took 0.25 s with both, 0.45 s with
   one), which flips a median between two modes from run to run.  The
   round count is fixed by --seconds, so two commits take the minimum over
   as many samples; only a run past [overrun] x --seconds stops early.
   Twins are timed once and left out of the metric: the kind of fault the
   seed draws changes a twin's cost (the SAT sweeper took 0.48-0.99 s on
   sin9's twin), which would swamp a change's effect.  [between_rounds]
   runs before every round, outside the timed checks.
   Prints the per-miter table and the derived figures. *)
let timed ~pool ~rounds ~budget_s ~untimed ~between_rounds ~tally ~first_tally miters nets =
  let t_start = now () in
  let samples = Hashtbl.create 64 in
  let flow_stats = Hashtbl.create 16 and wins = Hashtbl.create 4 in
  let check e ~first (m, net) =
    Gc.compact ();
    let r =
      run_check ~pool e net
        ~on_flow:(Hashtbl.replace flow_stats m.Inputs.label)
        ~on_portfolio:(fun r ->
          if first then
            bump wins
              (match r.Simsweep.Portfolio.winner with
              | Some w -> Simsweep.Portfolio.engine_name w
              | None -> "none"))
    in
    score tally (engine_name e) m net r;
    if first then score ~report:false first_tally (engine_name e) m net r;
    let k = (e, m.Inputs.label) in
    Hashtbl.replace samples k (snd r :: Option.value ~default:[] (Hashtbl.find_opt samples k))
  in
  let all = List.combine miters nets in
  let equivalent = List.filter (fun (m, _) -> m.Inputs.equivalent) all in
  let timed_on e =
    List.filter (fun (m, _) -> not (List.mem (engine_name e, m.Inputs.label) untimed)) equivalent
  in
  let n_engines = List.length engines in
  let ran = ref 0 in
  while !ran < rounds && (!ran = 0 || now () -. t_start < overrun *. budget_s) do
    incr ran;
    between_rounds ();
    List.iteri
      (fun i _ ->
        let e = List.nth engines ((i + !ran) mod n_engines) in
        if !ran = 1 then List.iter (check e ~first:true) all
        else
          for _ = 1 to if e = Flow then flow_repeats else 1 do
            List.iter (check e ~first:false) (timed_on e)
          done)
      engines
  done;
  if !ran < rounds then
    Printf.printf "WARNING: stopped after %d of %d rounds, past %.0fx the budget\n" !ran rounds
      overrun;
  let best e m = List.fold_left Float.min infinity (Hashtbl.find samples (e, m.Inputs.label)) in
  let total e = List.fold_left (fun acc (m, _) -> acc +. best e m) 0. (timed_on e) in
  Printf.printf "\n%d rounds in %.1fs; fastest seconds per check:\n" !ran (now () -. t_start);
  Printf.printf "%-18s %7s %6s | %9s %9s %9s %9s | %s\n" "miter" "ANDs" "answer" "flow" "satsweep"
    "portfolio" "shard" "fault";
  List.iter
    (fun m ->
      Printf.printf "%-18s %7d %6s | %9.4f %9.4f %9.4f %9.4f | %s\n" m.Inputs.label m.Inputs.ands
        (if m.Inputs.equivalent then "equiv" else "differ")
        (best Flow m) (best Satsweep m) (best Portfolio m) (best Shard m) m.Inputs.fault)
    miters;
  let eq = List.map fst equivalent in
  Printf.printf "samples (s) on the equivalent miters:\n";
  List.iter
    (fun e ->
      List.iter
        (fun m ->
          let l = List.rev (Hashtbl.find samples (e, m.Inputs.label)) in
          Printf.printf "  %-9s %-14s %s\n" (engine_name e) m.Inputs.label
            (String.concat " " (List.map (Printf.sprintf "%.4f") l)))
        eq)
    engines;
  Printf.printf "\nderived (ungated):\n  flow speedup over the SAT sweeper (satsweep/flow):\n";
  let speedups =
    List.map
      (fun m ->
        let s = ratio (best Satsweep m) (best Flow m) in
        Printf.printf "    %-16s %7.2fx\n" m.Inputs.label s;
        s)
      eq
  in
  Printf.printf "    %-16s %7.2fx\n" "geomean" (geomean speedups);
  Printf.printf "  Fig. 6 P/G/L shares of engine time:\n";
  List.iter
    (fun m ->
      let p, g, l = Simsweep.Stats.breakdown (Hashtbl.find flow_stats m.Inputs.label) in
      Printf.printf "    %-16s P %5.1f%%  G %5.1f%%  L %5.1f%%\n" m.Inputs.label (100. *. p) (100. *. g)
        (100. *. l))
    eq;
  Printf.printf "  portfolio winners (round 1):";
  List.iter (fun (w, n) -> Printf.printf " %s=%d" w n)
    (List.sort compare (List.of_seq (Hashtbl.to_seq wins)));
  Printf.printf "\n  fail_ratio %.4f (%d of %d checks)\n"
    (ratio (fi tally.nfailed) (fi tally.attempted)) tally.nfailed tally.attempted;
  [ ("flow_s", total Flow); ("satsweep_s", total Satsweep); ("portfolio_s", total Portfolio);
    ("shard_s", total Shard) ]

(* ---------------------------------------------------------- traced round *)

(* Leaf spans of the traced flow; their sum over the flow's wall-clock is
   the span coverage.  "local.pass" is not a leaf: it contains the cuts.*
   spans and the L-phase "exhaustive" time. *)
let leaves =
  [ "copy"; "psim"; "eclass"; "support"; "wmerge"; "exhaustive"; "cex"; "reduce";
    "cuts.levels"; "cuts.enum"; "cuts.common"; "sat" ]

(* One round with every layer timed from here.  Returns the per-layer
   metrics as (name, value, unit). *)
let traced ~pool ~tally miters nets (st : setup) =
  Par.Pool.reset_stats pool;
  let acc = Hashtbl.create 64 in
  let get k = Option.value ~default:0. (Hashtbl.find_opt acc k) in
  let add k v = Hashtbl.replace acc k (v +. get k) in
  let addi k v = add k (fi v) in
  let add_sat (s : Sat.Sweep.stats) =
    addi "sat.calls" s.Sat.Sweep.sat_calls;
    addi "sat.unsat" s.Sat.Sweep.sat_unsat;
    addi "sat.sat" s.Sat.Sweep.sat_sat;
    addi "sat.unknown" s.Sat.Sweep.sat_unknown;
    addi "sat.conflicts" s.Sat.Sweep.conflicts;
    addi "sat.rounds" s.Sat.Sweep.rounds
  in
  let cnt = Replay.new_counts () in
  let all_spans : Replay.spans = Hashtbl.create 16 in
  Printf.printf "%-18s %9s %9s %7s %9s %9s %9s\n" "miter" "flow" "traced" "cover" "L.pass" "cuts.enum"
    "cuts.comm";
  List.iter2
    (fun m net ->
      (* Untraced flow: the reference time and the engine's own Stats. *)
      Gc.compact ();
      let engine = ref None in
      let r = run_check ~pool Flow net ~on_flow:(fun s -> engine := Some s) in
      score tally "flow" m net r;
      add "trace.untraced_s" (snd r);
      let p_before = cnt.Replay.pos_proved
      and g_before = cnt.Replay.global_proved
      and l_before = cnt.Replay.local_proved in
      Option.iter
        (fun s ->
          add "engine.p_s" s.Simsweep.Stats.time_p;
          add "engine.g_s" s.Simsweep.Stats.time_g;
          add "engine.l_s" s.Simsweep.Stats.time_l;
          addi "engine.pos_proved" s.Simsweep.Stats.pos_proved;
          addi "engine.pairs_proved_global" s.Simsweep.Stats.pairs_proved_global;
          addi "engine.pairs_proved_local" s.Simsweep.Stats.pairs_proved_local;
          addi "engine.local_phases" s.Simsweep.Stats.local_phases;
          addi "engine.cex_found" s.Simsweep.Stats.cex_found;
          let ex = s.Simsweep.Stats.exhaustive in
          addi "exhaustive.windows" ex.Simsweep.Exhaustive.windows;
          addi "exhaustive.small_windows" ex.Simsweep.Exhaustive.small_windows;
          addi "exhaustive.rounds" ex.Simsweep.Exhaustive.rounds;
          addi "exhaustive.words" ex.Simsweep.Exhaustive.words_computed;
          addi "exhaustive.nodes" ex.Simsweep.Exhaustive.nodes_simulated;
          Hashtbl.replace acc "exhaustive.arena_hwm_words"
            (Float.max (get "exhaustive.arena_hwm_words") (fi ex.Simsweep.Exhaustive.arena_hwm_words));
          addi "psim.node_words" s.Simsweep.Stats.psim.Sim.Psim.node_words;
          addi "eclass.candidates" s.Simsweep.Stats.g_candidates;
          addi "eclass.refinements" s.Simsweep.Stats.g_refinements)
        !engine;
      (* Traced flow. *)
      Gc.compact ();
      let sp : Replay.spans = Hashtbl.create 16 in
      let tail = ref None in
      let v, wall =
        guarded (fun cancel ->
            let o, t = Replay.flow ~sp ~cnt ~pool ~cancel net in
            tail := t;
            o)
      in
      score tally "traced flow" m net (v, wall);
      Option.iter add_sat !tail;
      (* The replay must prove what the engine proved. *)
      (match !engine with
      | Some s
        when cnt.Replay.pos_proved - p_before <> s.Simsweep.Stats.pos_proved
             || cnt.Replay.global_proved - g_before <> s.Simsweep.Stats.pairs_proved_global
             || cnt.Replay.local_proved - l_before <> s.Simsweep.Stats.pairs_proved_local ->
          tally.nfailed <- tally.nfailed + 1;
          Printf.printf
            "FAILED replay of %s: %d outputs / %d global / %d local pairs, engine %d / %d / %d\n"
            m.Inputs.label (cnt.Replay.pos_proved - p_before) (cnt.Replay.global_proved - g_before)
            (cnt.Replay.local_proved - l_before) s.Simsweep.Stats.pos_proved
            s.Simsweep.Stats.pairs_proved_global s.Simsweep.Stats.pairs_proved_local
      | _ -> ());
      let covered = List.fold_left (fun a k -> a +. Replay.span_s sp k) 0. leaves in
      let cov = ratio covered wall in
      add "trace.covered_s" covered;
      Printf.printf "%-18s %9.4f %9.4f %6.1f%% %9.4f %9.4f %9.4f\n%!" m.Inputs.label (snd r) wall
        (100. *. cov) (Replay.span_s sp "local.pass") (Replay.span_s sp "cuts.enum")
        (Replay.span_s sp "cuts.common");
      add "trace.flow_s" wall;
      Replay.merge_into all_spans sp;
      (* SAT sweeper alone. *)
      Gc.compact ();
      let r = run_check ~pool Satsweep net ~on_sat:add_sat in
      score tally "satsweep" m net r;
      add "sat.alone_s" (snd r);
      (* Portfolio: member times and the winner. *)
      Gc.compact ();
      let r =
        run_check ~pool Portfolio net ~on_portfolio:(fun r ->
            let winner = r.Simsweep.Portfolio.winner in
            List.iter
              (fun (e, t) ->
                add ("portfolio.member." ^ Simsweep.Portfolio.engine_name e ^ "_s") t;
                if Some e <> winner then begin
                  add "portfolio.wasted_s" t;
                  if e = Simsweep.Portfolio.Bdd_engine then addi "bdd.aborts" 1
                end)
              r.Simsweep.Portfolio.per_engine_time;
            Option.iter
              (fun e -> addi ("portfolio.wins." ^ Simsweep.Portfolio.engine_name e) 1)
              winner)
      in
      score tally "portfolio" m net r;
      (* Shard: the plan timed on its own, then the check. *)
      Gc.compact ();
      let cfg = Shard.Check.default_config in
      let cap = cfg.Shard.Check.max_shard_ands in
      let max_ands =
        max (min 256 cap) (min cap (Aig.Network.num_ands net / max 1 cfg.Shard.Check.workers))
      in
      let t0 = now () in
      ignore (Shard.Plan.build ~max_ands net);
      add "shard.plan_s" (now () -. t0);
      let r =
        run_check ~pool Shard net ~on_shard:(fun st ->
            let busy =
              List.fold_left (fun a e -> a +. e.Shard.Stats.e_wall_s) 0. st.Shard.Stats.entries
            in
            add "shard.busy_s" busy;
            add "shard.idle_s" ((fi st.Shard.Stats.workers *. st.Shard.Stats.wall_s) -. busy);
            addi "shard.shards" st.Shard.Stats.shards;
            addi "shard.steals" (Array.fold_left ( + ) 0 (Shard.Stats.steals st));
            addi "shard.spawns" st.Shard.Stats.workers_spawned;
            addi "shard.bytes_tx" st.Shard.Stats.bytes_tx)
      in
      score tally "shard" m net r)
    miters nets;
  let ps = Par.Pool.stats pool in
  let s k = Replay.span_s all_spans k in
  let local_proved = fi cnt.Replay.local_proved in
  let proved =
    get "engine.pos_proved" +. get "engine.pairs_proved_global" +. get "engine.pairs_proved_local"
  in
  let coverage = ratio (get "trace.covered_s") (get "trace.flow_s") in
  Printf.printf "span coverage of the traced flow: %.1f%%; tracing overhead %.4fs\n"
    (100. *. coverage) (get "trace.flow_s" -. get "trace.untraced_s");
  let sec = "s" and count = "count" in
  [
    ("setup.read_s", st.read_s, sec);
    ("setup.miter_s", st.miter_s, sec);
    ("setup.pool_s", st.pool_s, sec);
    ("engine.p_s", get "engine.p_s", sec);
    ("engine.g_s", get "engine.g_s", sec);
    ("engine.l_s", get "engine.l_s", sec);
    ("engine.pos_proved", get "engine.pos_proved", count);
    ("engine.pairs_proved_global", get "engine.pairs_proved_global", count);
    ("engine.pairs_proved_local", get "engine.pairs_proved_local", count);
    ("engine.local_phases", get "engine.local_phases", count);
    ("engine.cex_found", get "engine.cex_found", count);
    ("cuts.levels_s", s "cuts.levels", sec);
    ("cuts.enum_s", s "cuts.enum", sec);
    ("cuts.enum_nodes", fi cnt.Replay.enum_nodes, count);
    ("cuts.prio_cuts", fi cnt.Replay.prio_cuts, count);
    ("cuts.common_s", s "cuts.common", sec);
    ("cuts.common_cuts", fi cnt.Replay.common_cuts, count);
    ("local.pass_s", s "local.pass", sec);
    ("local.pairs_tried", fi cnt.Replay.pairs_tried, count);
    ("local.cuts_checked", fi cnt.Replay.cuts_checked, count);
    ("local.proved_per_cut", ratio local_proved (fi cnt.Replay.cuts_checked), "ratio");
    ("exhaustive.s", s "exhaustive", sec);
    ("exhaustive.windows", get "exhaustive.windows", count);
    ("exhaustive.small_windows", get "exhaustive.small_windows", count);
    ("exhaustive.rounds", get "exhaustive.rounds", count);
    ("exhaustive.words", get "exhaustive.words", "words");
    ("exhaustive.nodes", get "exhaustive.nodes", count);
    ("exhaustive.arena_hwm_words", get "exhaustive.arena_hwm_words", "words");
    ("exhaustive.proved_per_window", ratio proved (get "exhaustive.windows"), "ratio");
    ("wmerge.s", s "wmerge", sec);
    ("psim.s", s "psim", sec);
    ("psim.node_words", get "psim.node_words", "words");
    ("eclass.s", s "eclass", sec);
    ("eclass.candidates", get "eclass.candidates", count);
    ("eclass.refinements", get "eclass.refinements", count);
    ("support.s", s "support", sec);
    ("reduce.s", s "reduce", sec);
    ("reduce.calls", fi (Replay.span_calls all_spans "reduce"), count);
    ("sat.s", s "sat" +. get "sat.alone_s", sec);
    ("sat.calls", get "sat.calls", count);
    ("sat.unsat", get "sat.unsat", count);
    ("sat.sat", get "sat.sat", count);
    ("sat.unknown", get "sat.unknown", count);
    ("sat.conflicts", get "sat.conflicts", count);
    ("sat.rounds", get "sat.rounds", count);
    ("sat.proved_per_call", ratio (get "sat.unsat") (get "sat.calls"), "ratio");
    ("bdd.s", get "portfolio.member.bdd_s", sec);
    ("bdd.aborts", get "bdd.aborts", count);
    ("portfolio.member.sim_s", get "portfolio.member.sim_s", sec);
    ("portfolio.member.bdd_s", get "portfolio.member.bdd_s", sec);
    ("portfolio.member.sat_s", get "portfolio.member.sat_s", sec);
    ("portfolio.wasted_s", get "portfolio.wasted_s", sec);
    ("portfolio.wins.sim", get "portfolio.wins.sim", count);
    ("portfolio.wins.bdd", get "portfolio.wins.bdd", count);
    ("portfolio.wins.sat", get "portfolio.wins.sat", count);
    ("pool.barrier_wait_s", ps.Par.Pool.barrier_wait, sec);
    ("pool.jobs", fi ps.Par.Pool.jobs, count);
    ("pool.seq_jobs", fi ps.Par.Pool.seq_jobs, count);
    ("pool.steals", fi (Array.fold_left ( + ) 0 ps.Par.Pool.steals), count);
    ("shard.plan_s", get "shard.plan_s", sec);
    ("shard.busy_s", get "shard.busy_s", sec);
    ("shard.idle_s", get "shard.idle_s", sec);
    ("shard.shards", get "shard.shards", count);
    ("shard.steals", get "shard.steals", count);
    ("shard.spawns", get "shard.spawns", count);
    ("shard.bytes_tx", get "shard.bytes_tx", "bytes");
    ("trace.coverage", coverage, "ratio");
    ("trace.flow_s", get "trace.flow_s", sec);
    ("trace.overhead_s", get "trace.flow_s" -. get "trace.untraced_s", sec);
  ]

(* ----------------------------------------------------------------- main *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
  \       main.exe --generate     (build the input cache)\n\
  \       main.exe --write-pins   (record the inputs' digests in perfbench/pinned.txt)"

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit code) fmt

(* Input generation runs in a child process, so its memory never shows in
   this process's peak RSS. *)
let ensure_cache () =
  if not (Inputs.cache_valid ()) then begin
    let pid =
      Unix.create_process Sys.executable_name [| Sys.executable_name; "--generate" |] Unix.stdin
        Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> die 3 "input generation failed"
  end

let () =
  Shard.Worker.maybe_become_worker ();
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let generate = ref false and write_pins = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--generate" :: rest -> generate := true; parse rest
    | "--write-pins" :: rest -> write_pins := true; parse rest
    | [] -> ()
    | a :: _ -> die 2 "unknown argument %s\n%s" a usage
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> die 2 "%s" usage);
  if not (Sys.file_exists "dune-project" && Sys.file_exists "lib") then
    die 2 "run from the root of a simsweep checkout";
  if !generate then (Inputs.generate (); exit 0);
  ensure_cache ();
  if !write_pins then (Inputs.write_pins (); exit 0);
  let w =
    match Inputs.find_workload !workload with
    | Some w when !seed >= 0 && !seconds > 0. && (!trace = 0 || !trace = 1) -> w
    | Some _ -> die 2 "%s" usage
    | None ->
        die 2 "unknown workload %S (have: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.Inputs.wname) Inputs.workloads))
  in
  (try Inputs.check_pins () with Failure msg -> die 3 "%s" msg);
  (* Shard payload segments stay inside the checkout. *)
  let shm = Filename.concat Inputs.cache_dir "shm" in
  if not (Sys.file_exists shm) then Sys.mkdir shm 0o755;
  Unix.putenv "SIMSWEEP_SHM_DIR" (Filename.concat (Sys.getcwd ()) shm);
  let miters = Inputs.miters w ~seed:!seed in
  Printf.printf "workload %s, seed %d: %d miters, %d domains\n" w.Inputs.wname !seed (List.length miters)
    domains;
  let setups = ref (List.init setup_repeats (fun _ -> setup_sample miters)) in
  let nets = snd (setup_once miters) in
  liar_self_test miters nets;
  Gc.compact ();
  let pool = Par.Pool.create ~num_domains:domains () in
  let tally = { attempted = 0; nfailed = 0 } in
  let metrics =
    if !trace = 0 then
      let first_tally = { attempted = 0; nfailed = 0 } in
      let rounds = max 3 (int_of_float (Float.round (!seconds /. w.Inputs.round_s))) in
      let totals =
        timed ~pool ~rounds ~budget_s:!seconds ~untimed:w.Inputs.untimed
          ~between_rounds:(fun () -> setups := setup_sample miters :: !setups)
          ~tally ~first_tally miters nets
      in
      let _, setup_s = setup_medians !setups in
      List.map (fun (n, v) -> (n, v, "s")) totals
      @ [
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", peak_rss_mb (), "MB");
          (* Over the first round only, every engine on every miter once,
             so a single wrong verdict moves it by more than its bound,
             however many rounds the run makes. *)
          ("correct_ratio", 1. -. ratio (fi first_tally.nfailed) (fi first_tally.attempted), "ratio");
        ]
    else traced ~pool ~tally miters nets (fst (setup_medians !setups))
  in
  Par.Pool.shutdown pool;
  json_line ~correct:(tally.nfailed = 0) ~attempted:tally.attempted ~failed:tally.nfailed
    (List.map (fun (mname, value, unit_) -> { mname; value; unit_ }) metrics)
