(* Benchmark inputs: the workloads' miters, made by the benchmark itself.

   Every miter pairs a generated circuit with its resyn2-optimised copy
   (equivalent), and each of those has an inequivalent twin whose
   optimised side carries one seeded Fuzz.Mutate fault.  Generation is
   slow (resyn2 takes seconds per circuit) and seed-independent, so the
   optimised circuits are cached under [cache_dir] and pinned by digest in
   perfbench/pinned.txt: a change to lib/gen or lib/opt that alters them
   stops the benchmark instead of silently measuring other inputs.  Twins
   are cheap and are derived from the seed on every run. *)

type base = {
  name : string;
  build : unit -> Aig.Network.t;
  doubles : int;  (** Gen.Double applications to both sides *)
}

type workload = {
  wname : string;
  bases : base list;
  round_s : float;
      (** seconds one round of every engine over the equivalent miters
          took on a 2-vCPU host; --seconds / round_s fixes the round count *)
  untimed : (string * string) list;
      (** (engine, miter) pairs checked in the first round only, for the
          verdict, and left out of the engine's metric *)
}

(* Why these workloads (perfbench/NOTES.md has the full rationale):
   - arith-table2: Table II arithmetic.  The multiplier is just above
     k_P = 20, so the L phase does the proving and cut enumeration
     dominates it; log2 and sin are the SAT sweeper's heavy cases.
   - control-doubled: ac97-style control logic, the miter doubled to ~13k
     ANDs: many tiny outputs, all P phase over small windows, no L phase;
     the BDD wins the portfolio and the shard planner packs the outputs.
   Sizes keep every timed check under about 1.5 s, so that each engine
   gets enough samples for its fastest one to be steady. *)
let workloads =
  let arith name build = { name; build; doubles = 0 } in
  [
    {
      wname = "arith-table2";
      bases =
        [
          arith "wallace11" (fun () -> Gen.Wallace.multiplier ~bits:11);
          arith "log2_8" (fun () -> Gen.Arith.log2 ~bits:8 ~frac:4);
          arith "sin8" (fun () -> Gen.Arith.sin ~bits:8 ~iters:8);
        ];
      round_s = 3.8;
      (* The portfolio's BDD member hits its node limit on the multiplier
         after about 1.7 s of memory-bound work, and that time moved by
         0.22 of its median over ten runs on a shared host.  The traced
         run still measures it (bdd.s, bdd.aborts, portfolio.wasted_s). *)
      untimed = [ ("portfolio", "wallace11") ];
    };
    {
      wname = "control-doubled";
      bases =
        [
          {
            name = "ac97_x64";
            build = (fun () -> Gen.Control.regfile ~regs:4 ~width:4);
            doubles = 6;
          };
        ];
      round_s = 1.95;
      untimed = [];
    };
  ]

let find_workload name = List.find_opt (fun w -> w.wname = name) workloads

(* ------------------------------------------------------------ evaluation *)

(* Bit-parallel evaluation written here rather than taken from a library
   engine, so the known answers do not depend on the code under test.
   [pattern pi_index word] supplies 63 input patterns per call. *)
let eval_words g ~pattern =
  let v = Array.make (Aig.Network.num_nodes g) 0 in
  let lit l =
    let x = v.(Aig.Lit.node l) in
    if Aig.Lit.is_compl l then lnot x else x
  in
  Aig.Network.iter_nodes g (fun n ->
      if Aig.Network.is_pi g n then v.(n) <- pattern (Aig.Network.pi_index g n)
      else if Aig.Network.is_and g n then
        v.(n) <- lit (Aig.Network.fanin0 g n) land lit (Aig.Network.fanin1 g n));
  Array.map lit (Aig.Network.pos g)

(* [cex_replays miter cex po]: PO [po] of [miter] is true under [cex]. *)
let cex_replays miter (cex : bool array) po =
  Array.length cex = Aig.Network.num_pis miter
  && po >= 0
  && po < Aig.Network.num_pos miter
  &&
  let outs = eval_words miter ~pattern:(fun i -> if cex.(i) then 1 else 0) in
  outs.(po) land 1 = 1

let random_patterns rs g =
  Array.init (Aig.Network.num_pis g) (fun _ ->
      Random.State.bits rs lor (Random.State.bits rs lsl 30) lor (Random.State.bits rs lsl 60))

(* Outputs at which [a] and [b] differ on [words] x 63 random patterns. *)
let visible_pos ~rs ~words a b =
  let n = Aig.Network.num_pos a in
  let seen = Array.make n false in
  for _ = 1 to words do
    let pats = random_patterns rs a in
    let pattern i = pats.(i) in
    let oa = eval_words a ~pattern and ob = eval_words b ~pattern in
    Array.iteri (fun i x -> if x <> ob.(i) then seen.(i) <- true) oa
  done;
  List.filter (fun i -> seen.(i)) (List.init n Fun.id)

(* An input and an output of [g] that this input leaves false, found among
   8 x 63 random patterns: a counter-example that does not replay.  [None]
   when every pattern tried sets every output. *)
let false_output g =
  let rs = Random.State.make [| 17 |] in
  let rec search tries =
    if tries = 0 then None
    else
      let pats = random_patterns rs g in
      let outs = eval_words g ~pattern:(fun i -> pats.(i)) in
      match Array.find_index (fun x -> lnot x <> 0) outs with
      | None -> search (tries - 1)
      | Some po ->
          let zeros = lnot outs.(po) in
          let rec low b = if (zeros lsr b) land 1 = 1 then b else low (b + 1) in
          let bit = low 0 in
          Some (Array.map (fun p -> (p lsr bit) land 1 = 1) pats, po)
  in
  search 8

(* ---------------------------------------------------------------- miters *)

type miter = {
  label : string;  (** e.g. [hyp10] or [hyp10~twin] *)
  equivalent : bool;  (** the known answer *)
  files : string list;
      (** binary AIGER: the original and the optimised (or faulty) circuit,
          or, for a doubled workload, the doubled miter itself, as
          `cec --post-double` checks it *)
  ands : int;  (** AND nodes of the miter *)
  fault : string;  (** Fuzz.Mutate description; [""] when equivalent *)
}

let aiger = Aig.Aiger_io.to_binary_string

(* The fault sits on the gate that drives the first output of small
   support: at most [small_support] inputs, or the smallest support the
   circuit has.  The seed picks the kind of fault; a draw is kept once
   random patterns show the difference.  Fixing the output keeps a twin's
   cost from swinging with the seed: the BDD walks outputs in order and
   the flow's P phase simulates small outputs, so every seed meets the
   difference at the same point.  A fault drawn anywhere in an arithmetic
   cone can instead cost the SAT sweeper more than the check deadline. *)
let small_support = 14

let make_twin ~seed ~index base original optimized =
  let rng = Sim.Rng.create ~seed:(Int64.of_int ((seed * 7919) + index)) in
  let rs = Random.State.make [| seed; index |] in
  let support =
    Array.map
      (fun l -> Array.length (Aig.Support.exact original (Aig.Lit.node l)))
      (Aig.Network.pos original)
  in
  let limit = max small_support (Array.fold_left min max_int support) in
  let node =
    let rec first po =
      if po = Aig.Network.num_pos optimized then
        failwith (base.name ^ ": no output of small support is driven by a gate")
      else
        let n = Aig.Lit.node (Aig.Network.po optimized po) in
        if support.(po) <= limit && Aig.Network.is_and optimized n then n else first (po + 1)
    in
    first 0
  in
  let rec draw tries =
    if tries = 0 then
      failwith (Printf.sprintf "%s: no visible fault found for seed %d" base.name seed);
    let right = Sim.Rng.bool rng and value = Sim.Rng.bool rng in
    let fault =
      match Sim.Rng.int rng 3 with
      | 0 -> Fuzz.Mutate.Flip_fanin { node; right }
      | 1 -> Fuzz.Mutate.Stuck_fanin { node; right; value }
      | _ -> Fuzz.Mutate.Stuck_node { node; value }
    in
    let faulty = Fuzz.Mutate.apply optimized fault in
    if visible_pos ~rs ~words:4 original faulty <> [] then (fault, faulty) else draw (tries - 1)
  in
  draw 1000

let miter_of base ~label ~equivalent ~fault lhs rhs =
  let m = Aig.Miter.build lhs rhs in
  let files, m =
    if base.doubles = 0 then ([ aiger lhs; aiger rhs ], m)
    else
      let d = Gen.Double.times base.doubles m in
      ([ aiger d ], d)
  in
  { label; equivalent; files; ands = Aig.Network.num_ands m; fault }

(* The equivalent miter of [base] and its twin for [seed]. *)
let pair ~seed ~index base (original, optimized) =
  let fault, faulty = make_twin ~seed ~index base original optimized in
  [
    miter_of base ~label:base.name ~equivalent:true ~fault:"" original optimized;
    miter_of base ~label:(base.name ^ "~twin") ~equivalent:false
      ~fault:(Fuzz.Mutate.describe fault) original faulty;
  ]

(* ----------------------------------------------------------- cache, pins *)

let cache_dir = ".perfbench-cache"
let pinned_file = Filename.concat "perfbench" "pinned.txt"
let all_bases () = List.concat_map (fun w -> w.bases) workloads

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin (path ^ ".tmp") (fun oc -> Out_channel.output_string oc s);
  Sys.rename (path ^ ".tmp") path

(* Digest of the library sources input generation depends on: a cache
   built by other sources is rebuilt, never reused. *)
let source_stamp () =
  let files =
    List.concat_map
      (fun d ->
        let dir = Filename.concat "lib" d in
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (Filename.concat dir))
      [ "aig"; "bv"; "cuts"; "gen"; "opt"; "sim"; "fuzz" ]
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.to_hex (Digest.file f)) files)))

let stamp_file () = Filename.concat cache_dir "stamp"
let side_file base side = Filename.concat cache_dir (base.name ^ "." ^ side ^ ".aig")

let cache_valid () =
  Sys.file_exists (stamp_file ())
  && read_file (stamp_file ()) = source_stamp ()
  && List.for_all
       (fun b -> Sys.file_exists (side_file b "orig") && Sys.file_exists (side_file b "opt"))
       (all_bases ())

(* Builds every workload's circuits; the slow part is resyn2. *)
let generate () =
  if not (Sys.file_exists cache_dir) then Sys.mkdir cache_dir 0o755;
  List.iter
    (fun b ->
      let t0 = Unix.gettimeofday () in
      let original = b.build () in
      let optimized = Opt.Resyn.resyn2 original in
      write_file (side_file b "orig") (aiger original);
      write_file (side_file b "opt") (aiger optimized);
      Printf.eprintf "[perfbench] generated %s in %.1fs\n%!" b.name (Unix.gettimeofday () -. t0))
    (all_bases ());
  write_file (stamp_file ()) (source_stamp ())

let load_base b =
  ( Aig.Aiger_io.of_string (read_file (side_file b "orig")),
    Aig.Aiger_io.of_string (read_file (side_file b "opt")) )

(* Pin lines: [<label> file<i> <ands> <md5 of the AIGER bytes>] for every
   input file of every miter, twins drawn at [pin_seed]. *)
let pin_seed = 1

let pin_lines () =
  List.concat_map
    (fun w ->
      List.concat
        (List.mapi
           (fun index b ->
             pair ~seed:pin_seed ~index b (load_base b)
             |> List.concat_map (fun m ->
                    List.mapi
                      (fun i s ->
                        Printf.sprintf "%s file%d %d %s" m.label i
                          (Aig.Network.num_ands (Aig.Aiger_io.of_string s))
                          (Digest.to_hex (Digest.string s)))
                      m.files))
           w.bases))
    workloads

let write_pins () = write_file pinned_file (String.concat "\n" (pin_lines ()) ^ "\n")

(* Raises [Failure] naming every input that differs from its pin. *)
let check_pins () =
  let pinned =
    String.split_on_char '\n' (read_file pinned_file) |> List.filter (( <> ) "")
  in
  let fresh = pin_lines () in
  let diffs =
    List.filter (fun l -> not (List.mem l pinned)) fresh
    @ List.filter (fun l -> not (List.mem l fresh)) pinned
  in
  if diffs <> [] then
    failwith
      ("benchmark inputs differ from perfbench/pinned.txt (did lib/gen, lib/opt \
        or lib/fuzz change?):\n  "
      ^ String.concat "\n  " diffs)

(* The miters of workload [w] for [seed]. *)
let miters w ~seed =
  List.concat (List.mapi (fun index b -> pair ~seed ~index b (load_base b)) w.bases)
