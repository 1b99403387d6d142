type pair = { a : int; b : int; compl_ : bool; tag : int }
type job = { inputs : int array; pairs : pair list }
type mismatch = { pattern : int; inputs : int array }
type verdict = Proved | Mismatch of mismatch | Invalid

type stats = {
  mutable windows : int;
  mutable nodes_simulated : int;
  mutable words_computed : int;
  mutable rounds : int;
  mutable small_windows : int;
  mutable arena_hwm_words : int;
  mutable arena_grows : int;
}

let new_stats () =
  {
    windows = 0;
    nodes_simulated = 0;
    words_computed = 0;
    rounds = 0;
    small_windows = 0;
    arena_hwm_words = 0;
    arena_grows = 0;
  }

(* A prepared window: rows [0, ni) are the inputs, rows [ni, ni+nn) the AND
   nodes ordered by local topological level. *)
type ppair = { a_row : int; b_row : int; pcompl : bool; ptag : int; mutable decided : bool }

type prep = {
  inputs : int array;
  ni : int;
  nn : int;
  f0_row : int array;
  f0_mask : int64 array;  (* complement masks *)
  f1_row : int array;
  f1_mask : int64 array;
  level_start : int array;  (* slot boundaries per local level *)
  tt_words : int;
  tail_mask : int64;
  ppairs : ppair array;
  mutable base : int;  (* word offset of this window's rows in the arena *)
  mutable w_words : int;  (* stats: words actually computed in this window *)
  mutable w_rounds : int;
}

let prepare g (job : job) =
  let roots =
    List.fold_left
      (fun acc p -> if p.b >= 0 then p.a :: p.b :: acc else p.a :: acc)
      [] job.pairs
    |> List.sort_uniq Int.compare
  in
  (* Roots inside the input boundary are legal: their truth table is the
     projection of that input. *)
  let input_pos = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace input_pos n i) job.inputs;
  let cone_roots =
    List.filter (fun n -> not (Hashtbl.mem input_pos n)) roots |> Array.of_list
  in
  match Aig.Cone.extract g ~roots:cone_roots ~inputs:job.inputs with
  | None -> None (* pairs keep the default [Invalid] verdict *)
  | Some { Aig.Cone.inputs; nodes } ->
      let ni = Array.length inputs and nn = Array.length nodes in
      (* Local levels (inputs are level 0). *)
      let level = Hashtbl.create (2 * nn) in
      Array.iter (fun n -> Hashtbl.replace level n 0) inputs;
      let node_level n =
        let l0 = Hashtbl.find level (Aig.Lit.node (Aig.Network.fanin0 g n)) in
        let l1 = Hashtbl.find level (Aig.Lit.node (Aig.Network.fanin1 g n)) in
        1 + max l0 l1
      in
      Array.iter (fun n -> Hashtbl.replace level n (node_level n)) nodes;
      (* Sort slots by level via a plain int array so the comparator costs
         two array loads, not two hash lookups.  Stable sort keeps id order
         inside a level. *)
      let node_lvl = Array.map (fun n -> Hashtbl.find level n) nodes in
      let order = Array.init nn Fun.id in
      Array.stable_sort (fun a b -> Int.compare node_lvl.(a) node_lvl.(b)) order;
      let slots = Array.map (fun i -> nodes.(i)) order in
      let slot_lvl = Array.map (fun i -> node_lvl.(i)) order in
      let row_of = Hashtbl.create (2 * (ni + nn)) in
      Array.iteri (fun i n -> Hashtbl.replace row_of n i) inputs;
      Array.iteri (fun s n -> Hashtbl.replace row_of n (ni + s)) slots;
      let f0_row = Array.make nn 0
      and f0_mask = Array.make nn 0L
      and f1_row = Array.make nn 0
      and f1_mask = Array.make nn 0L in
      Array.iteri
        (fun s n ->
          let f0 = Aig.Network.fanin0 g n and f1 = Aig.Network.fanin1 g n in
          f0_row.(s) <- Hashtbl.find row_of (Aig.Lit.node f0);
          f0_mask.(s) <- (if Aig.Lit.is_compl f0 then -1L else 0L);
          f1_row.(s) <- Hashtbl.find row_of (Aig.Lit.node f1);
          f1_mask.(s) <- (if Aig.Lit.is_compl f1 then -1L else 0L))
        slots;
      let max_level = if nn = 0 then 0 else slot_lvl.(nn - 1) in
      (* level_start.(l) is the first slot whose local level is >= l. *)
      let level_start = Array.make (max_level + 2) 0 in
      for l = 1 to max_level + 1 do
        let rec first i =
          if i = nn then nn else if slot_lvl.(i) >= l then i else first (i + 1)
        in
        level_start.(l) <- first level_start.(l - 1)
      done;
      let tt_words = if ni <= 6 then 1 else 1 lsl (ni - 6) in
      let tail_mask =
        if ni >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl ni)) 1L
      in
      let ppairs =
        List.map
          (fun p ->
            {
              a_row = Hashtbl.find row_of p.a;
              b_row = (if p.b < 0 then -1 else Hashtbl.find row_of p.b);
              pcompl = p.compl_;
              ptag = p.tag;
              decided = false;
            })
          job.pairs
        |> Array.of_list
      in
      Some
        {
          inputs;
          ni;
          nn;
          f0_row;
          f0_mask;
          f1_row;
          f1_mask;
          level_start;
          tt_words;
          tail_mask;
          ppairs;
          base = 0;
          w_words = 0;
          w_rounds = 0;
        }

let ctz64 = Bv.Bits.ctz64

(* Simulate one window completely (all rounds); verdicts written by tag.
   The window's rows live at word offset [prep.base] of [arena].
   [par_inner] enables level-wise parallel node evaluation and parallel
   pair comparison for big windows. *)
let simulate_window ?cancel pool arena prep ~entry_words ~verdicts ~par_inner =
  let e = entry_words in
  let data = Arena.data arena in
  let base_off = prep.base in
  (* Byte offset of a row's segment.  The hot loops below index [data]
     through per-row offsets hoisted out of the word loop rather than
     through get/set helpers: a helper that is one arithmetic node too big
     to inline boxes its int64 argument or result on EVERY simulated word
     — an allocation storm that also stalls every other domain in minor-GC
     rendezvous. *)
  let row_off row = (base_off + (row * e)) * 8 in
  let rounds = (prep.tt_words + e - 1) / e in
  (* Pairs decided by the fused comparison decrement [active] from worker
     domains; the round loop exits as soon as none remain. *)
  let active = Atomic.make (Array.length prep.ppairs) in
  let r = ref 0 in
  while
    !r < rounds && Atomic.get active > 0
    (* A real poll at the round boundary latches an expired deadline; the
       per-window guards below stay on the cheap flag-only check. *)
    && not (Par.Cancel.poll_opt cancel)
  do
    let base = !r * e in
    let nw = min e (prep.tt_words - base) in
    prep.w_rounds <- prep.w_rounds + 1;
    (* The last round of a window (or a window shorter than the chunk's
       entry size) computes only [nw <= e] words per row. *)
    prep.w_words <- prep.w_words + ((prep.ni + prep.nn) * nw);
    (* Projection-table segments for the inputs. *)
    for j = 0 to prep.ni - 1 do
      let oj = row_off j in
      for lw = 0 to nw - 1 do
        Bytes.set_int64_ne data (oj + (lw * 8)) (Bv.Tt.proj_word ~var:j (base + lw))
      done
    done;
    (* Level-wise evaluation. *)
    let eval_slot s =
      let o0 = row_off prep.f0_row.(s)
      and m0 = prep.f0_mask.(s)
      and o1 = row_off prep.f1_row.(s)
      and m1 = prep.f1_mask.(s) in
      let dst = row_off (prep.ni + s) in
      for lw = 0 to nw - 1 do
        let k = lw * 8 in
        Bytes.set_int64_ne data (dst + k)
          (Int64.logand
             (Int64.logxor (Bytes.get_int64_ne data (o0 + k)) m0)
             (Int64.logxor (Bytes.get_int64_ne data (o1 + k)) m1))
      done
    in
    (* The first parallel dimension of Fig. 3 — words of one truth table —
       matters when a level holds few nodes but the tables are long; split
       each slot's word range into chunks and schedule (slot, chunk) pairs. *)
    let eval_slot_range s lo hi =
      let o0 = row_off prep.f0_row.(s)
      and m0 = prep.f0_mask.(s)
      and o1 = row_off prep.f1_row.(s)
      and m1 = prep.f1_mask.(s) in
      let dst = row_off (prep.ni + s) in
      for lw = lo to hi - 1 do
        let k = lw * 8 in
        Bytes.set_int64_ne data (dst + k)
          (Int64.logand
             (Int64.logxor (Bytes.get_int64_ne data (o0 + k)) m0)
             (Int64.logxor (Bytes.get_int64_ne data (o1 + k)) m1))
      done
    in
    if par_inner then begin
      let word_chunk = 4096 in
      let nchunks = (nw + word_chunk - 1) / word_chunk in
      for l = 1 to Array.length prep.level_start - 2 do
        let lo = prep.level_start.(l) and hi = prep.level_start.(l + 1) in
        if nchunks <= 1 || hi - lo >= 2 * Par.Pool.num_workers pool then
          Par.Pool.parallel_for pool ~start:lo ~stop:hi eval_slot
        else
          (* Few nodes, long tables: parallelise over (slot, word chunk). *)
          Par.Pool.parallel_for pool ~start:0 ~stop:((hi - lo) * nchunks)
            (fun task ->
              let s = lo + (task / nchunks) in
              let c = task mod nchunks in
              eval_slot_range s (c * word_chunk) (min nw ((c + 1) * word_chunk)))
      done
    end
    else
      for s = 0 to prep.nn - 1 do
        eval_slot s
      done;
    (* Compare the pairs on this round's segment, fused into the parallel
       schedule: each pair's word range is scanned by whichever worker
       claims it, rather than sequentially on the calling domain after the
       barrier.  One pair is owned by exactly one loop index, so [decided]
       needs no synchronisation; only the shared [active] count is atomic.
       The scan order over words is fixed, so the reported mismatch
       pattern is identical to the sequential sweep's. *)
    let compare_pair k =
      let p = prep.ppairs.(k) in
      if not p.decided then begin
        let cmask = if p.pcompl then -1L else 0L in
        let oa = row_off p.a_row in
        let ob = if p.b_row < 0 then -1 else row_off p.b_row in
        let lw = ref 0 in
        while !lw < nw && not p.decided do
          let x = Bytes.get_int64_ne data (oa + (!lw * 8)) in
          let y = if ob < 0 then 0L else Bytes.get_int64_ne data (ob + (!lw * 8)) in
          let diff = Int64.logxor (Int64.logxor x y) cmask in
          let diff =
            if base + !lw = prep.tt_words - 1 then Int64.logand diff prep.tail_mask
            else diff
          in
          if not (Int64.equal diff 0L) then begin
            p.decided <- true;
            Atomic.decr active;
            verdicts.(p.ptag) <-
              Mismatch
                { pattern = ((base + !lw) * 64) + ctz64 diff; inputs = prep.inputs }
          end;
          incr lw
        done
      end
    in
    let np = Array.length prep.ppairs in
    if par_inner then Par.Pool.parallel_for pool ~start:0 ~stop:np compare_pair
    else
      for k = 0 to np - 1 do
        compare_pair k
      done;
    incr r
  done;
  (* Pairs that survived every round are proved — unless the window was
     cancelled mid-simulation, in which case the unfinished pairs must keep
     their inconclusive [Invalid] verdict rather than a false [Proved]. *)
  if not (Par.Cancel.is_set_opt cancel) then
    Array.iter
      (fun p -> if not p.decided then verdicts.(p.ptag) <- Proved)
      prep.ppairs

(* The small-window evaluator: a window of at most [small_inputs] inputs
   is evaluated by one memoised DFS from its roots, skipping the window
   preparation.  It runs on per-domain scratch: [stamp.(n) = cur] marks
   the nodes holding a row of the current window and [row.(n)] names the
   row; row [r] is [nw] words at byte offset [r * nw * 8] of [words].
   Once the scratch has grown to the largest network and cone seen, a
   window allocates nothing. *)
let small_inputs = 10

type scratch = {
  mutable stamp : int array;
  mutable row : int array;
  mutable cur : int;
  mutable words : Bytes.t;
  mutable width : int;  (* inputs of the current window *)
  mutable nw : int;
  mutable rows : int;
  mutable nodes : int;  (* AND nodes evaluated in the current window *)
}

(* One scratch per domain: windows checked on different domains never
   share it. *)
let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        stamp = [||];
        row = [||];
        cur = 0;
        words = Bytes.create (256 * 8);
        width = 0;
        nw = 1;
        rows = 0;
        nodes = 0;
      })

let new_row sc =
  let r = sc.rows in
  let need = (r + 1) * sc.nw * 8 in
  if Bytes.length sc.words < need then begin
    let words = Bytes.create (max need (2 * Bytes.length sc.words)) in
    Bytes.blit sc.words 0 words 0 (r * sc.nw * 8);
    sc.words <- words
  end;
  sc.rows <- r + 1;
  r

(* Start a window on [inputs]: each input gets its projection table. *)
let begin_window sc g inputs =
  let n = Aig.Network.num_nodes g in
  if Array.length sc.stamp < n then begin
    let size = max n (2 * Array.length sc.stamp) in
    sc.stamp <- Array.make size 0;
    sc.row <- Array.make size 0;
    sc.cur <- 0
  end;
  sc.cur <- sc.cur + 1;
  let ni = Array.length inputs in
  sc.width <- ni;
  sc.nw <- (if ni <= 6 then 1 else 1 lsl (ni - 6));
  sc.rows <- 0;
  sc.nodes <- 0;
  for j = 0 to ni - 1 do
    let r = new_row sc in
    let o = r * sc.nw * 8 in
    for w = 0 to sc.nw - 1 do
      Bytes.set_int64_ne sc.words (o + (w * 8)) (Bv.Tt.proj_word ~var:j w)
    done;
    sc.stamp.(inputs.(j)) <- sc.cur;
    sc.row.(inputs.(j)) <- r
  done

(* The row of node [n], evaluating its cone first, or [-1] when the DFS
   reaches a node that is neither an input nor an AND: the inputs do not
   bound the cone. *)
let rec eval sc g n =
  if sc.stamp.(n) = sc.cur then sc.row.(n)
  else if not (Aig.Network.is_and g n) then -1
  else begin
    let f0 = Aig.Network.fanin0 g n and f1 = Aig.Network.fanin1 g n in
    let r0 = eval sc g (Aig.Lit.node f0) in
    if r0 < 0 then -1
    else
      let r1 = eval sc g (Aig.Lit.node f1) in
      if r1 < 0 then -1
      else begin
        let r = new_row sc in
        let nw = sc.nw and data = sc.words in
        let o0 = r0 * nw * 8 and o1 = r1 * nw * 8 and o = r * nw * 8 in
        let m0 = if Aig.Lit.is_compl f0 then -1L else 0L in
        let m1 = if Aig.Lit.is_compl f1 then -1L else 0L in
        for k = 0 to nw - 1 do
          let k = k * 8 in
          Bytes.set_int64_ne data (o + k)
            (Int64.logand
               (Int64.logxor (Bytes.get_int64_ne data (o0 + k)) m0)
               (Int64.logxor (Bytes.get_int64_ne data (o1 + k)) m1))
        done;
        sc.nodes <- sc.nodes + 1;
        sc.stamp.(n) <- sc.cur;
        sc.row.(n) <- r;
        r
      end
  end

(* Trailing zeros of a non-zero int. *)
let ctz_int x =
  let n = ref 0 in
  while (x lsr !n) land 1 = 0 do
    incr n
  done;
  !n

(* Outcome codes of [compare_pair]; a mismatch is its pattern, >= 0. *)
let code_proved = -1
let code_invalid = -2

(* Compare [a] with [b] ([-1]: constant false), complemented when
   [compl_], over the current window: the lowest differing pattern. *)
let compare_pair sc g ~a ~b ~compl_ =
  let ra = eval sc g a in
  let rb = if ra < 0 || b < 0 then -1 else eval sc g b in
  if ra < 0 || (b >= 0 && rb < 0) then code_invalid
  else begin
    let nw = sc.nw and data = sc.words in
    let tail_mask =
      if sc.width >= 6 then -1L
      else Int64.sub (Int64.shift_left 1L (1 lsl sc.width)) 1L
    in
    let cmask = if compl_ then -1L else 0L in
    let res = ref code_proved and w = ref 0 in
    while !res = code_proved && !w < nw do
      let k = !w * 8 in
      let x = Bytes.get_int64_ne data ((ra * nw * 8) + k) in
      let y = if b < 0 then 0L else Bytes.get_int64_ne data ((rb * nw * 8) + k) in
      let diff = Int64.logxor (Int64.logxor x y) cmask in
      let diff = if !w = nw - 1 then Int64.logand diff tail_mask else diff in
      if not (Int64.equal diff 0L) then begin
        (* The lowest set bit, from the word's halves as ints: passing the
           word to a function would box it. *)
        let lo = Int64.to_int diff land 0xFFFF_FFFF in
        let bit =
          if lo <> 0 then ctz_int lo
          else 32 + ctz_int (Int64.to_int (Int64.shift_right_logical diff 32))
        in
        res := (!w * 64) + bit
      end;
      incr w
    done;
    !res
  end

let count_small_window stats ~inputs ~nodes =
  let ni = Array.length inputs in
  let nw = if ni <= 6 then 1 else 1 lsl (ni - 6) in
  stats.windows <- stats.windows + 1;
  stats.small_windows <- stats.small_windows + 1;
  stats.rounds <- stats.rounds + 1;
  stats.nodes_simulated <- stats.nodes_simulated + nodes;
  stats.words_computed <- stats.words_computed + ((nodes + ni) * nw)

(* One window of [run]'s small path: pairs are compared in order, and one
   whose cone escapes the inputs leaves it and every later pair [Invalid].
   Returns the number of AND nodes evaluated. *)
let small_window g (job : job) verdicts =
  let sc = Domain.DLS.get scratch_key in
  begin_window sc g job.inputs;
  let rec go = function
    | [] -> ()
    | p :: rest ->
        let v = compare_pair sc g ~a:p.a ~b:p.b ~compl_:p.compl_ in
        if v <> code_invalid then begin
          verdicts.(p.tag) <-
            (if v = code_proved then Proved
             else Mismatch { pattern = v; inputs = job.inputs });
          go rest
        end
  in
  go job.pairs;
  sc.nodes

let prove_on_windows stats ?cancel g ~windows ~a ~b ~compl_ =
  let sc = Domain.DLS.get scratch_key in
  List.fold_left
    (fun proved inputs ->
      (* A cancelled pass checks no further window. *)
      if Par.Cancel.is_set_opt cancel then proved
      else begin
        if Array.length inputs > small_inputs then
          invalid_arg "Exhaustive.prove_on_windows: window too wide";
        begin_window sc g inputs;
        let v = compare_pair sc g ~a ~b ~compl_ in
        count_small_window stats ~inputs ~nodes:sc.nodes;
        proved || v = code_proved
      end)
    false windows

let add_stats ~into s =
  into.windows <- into.windows + s.windows;
  into.nodes_simulated <- into.nodes_simulated + s.nodes_simulated;
  into.words_computed <- into.words_computed + s.words_computed;
  into.rounds <- into.rounds + s.rounds;
  into.small_windows <- into.small_windows + s.small_windows;
  into.arena_hwm_words <- max into.arena_hwm_words s.arena_hwm_words;
  into.arena_grows <- into.arena_grows + s.arena_grows

let run g ~pool ~memory_words ?arena ?(stats = new_stats ()) ?cancel ~jobs
    ~num_tags () =
  (* Latch an already-expired deadline before dispatching any window. *)
  ignore (Par.Cancel.poll_opt cancel);
  let verdicts = Array.make num_tags Invalid in
  (* Small windows go through the small-window evaluator; large ones use
     the round-based simulation table. *)
  let small, jobs =
    List.partition (fun (j : job) -> Array.length j.inputs <= small_inputs) jobs
  in
  if small <> [] then begin
    let small = Array.of_list small in
    let counts = Array.make (Array.length small) 0 in
    Par.Pool.parallel_for pool ~chunk:8 ~start:0 ~stop:(Array.length small)
      (fun k ->
        (* A cancelled small window keeps its [Invalid] verdicts. *)
        if not (Par.Cancel.is_set_opt cancel) then
          counts.(k) <- small_window g small.(k) verdicts);
    Array.iteri
      (fun k (job : job) ->
        count_small_window stats ~inputs:job.inputs ~nodes:counts.(k))
      small
  end;
  let preps = List.filter_map (fun job -> prepare g job) jobs in
  (* The simulation table: the whole [memory_words] budget is one arena
     slab, created per run (or handed in by the caller for reuse across
     batches) and recycled across chunks and rounds — the seed allocated
     every window's buffer from the GC heap on every chunk. *)
  let arena =
    match arena with
    | Some a -> a
    | None -> if preps = [] then Arena.create ~words:0 else Arena.create ~words:memory_words
  in
  let grows0 = Arena.grows arena in
  (* Greedy chunking under the memory budget (a single oversized window
     still runs alone with E = 1). *)
  let rows p = p.ni + p.nn in
  let rec chunk acc cur cur_rows = function
    | [] -> if cur = [] then List.rev acc else List.rev (List.rev cur :: acc)
    | p :: rest ->
        let r = rows p in
        if cur <> [] && cur_rows + r > memory_words then
          chunk (List.rev cur :: acc) [ p ] r rest
        else chunk acc (p :: cur) (cur_rows + r) rest
  in
  let chunks = chunk [] [] 0 preps in
  List.iter
    (fun chunk ->
      if not (Par.Cancel.is_set_opt cancel) then begin
      let chunk = Array.of_list chunk in
      let total_rows = Array.fold_left (fun acc p -> acc + rows p) 0 chunk in
      let max_tt = Array.fold_left (fun acc p -> max acc p.tt_words) 1 chunk in
      (* Entry size E: the largest power of two fitting the budget, capped
         at the longest truth table in the chunk. *)
      let e = ref 1 in
      while
        2 * !e * total_rows <= memory_words && !e < max_tt
      do
        e := 2 * !e
      done;
      let entry_words = !e in
      Arena.reset arena;
      (* An oversized single window (rows > memory_words, E = 1) needs more
         than the configured slab, exactly like the seed's unbounded
         per-window allocation did. *)
      Arena.ensure arena (total_rows * entry_words);
      Array.iter (fun p -> p.base <- Arena.alloc arena (rows p * entry_words)) chunk;
      let big p = rows p > 8192 in
      let small_idx = ref [] and big_idx = ref [] in
      Array.iteri (fun i p -> if big p then big_idx := i :: !big_idx else small_idx := i :: !small_idx) chunk;
      let small = Array.of_list !small_idx in
      (* One region per chunk: the workers stay hot across the window loop
         and every per-level barrier inside the big windows. *)
      Par.Pool.parallel_region pool (fun () ->
          Par.Pool.parallel_for pool ~chunk:1 ~start:0 ~stop:(Array.length small)
            (fun k ->
              simulate_window ?cancel pool arena chunk.(small.(k)) ~entry_words
                ~verdicts ~par_inner:false);
          List.iter
            (fun i ->
              simulate_window ?cancel pool arena chunk.(i) ~entry_words
                ~verdicts ~par_inner:true)
            !big_idx);
      Array.iter
        (fun p ->
          stats.windows <- stats.windows + 1;
          stats.nodes_simulated <- stats.nodes_simulated + p.nn;
          stats.words_computed <- stats.words_computed + p.w_words;
          stats.rounds <- stats.rounds + p.w_rounds)
        chunk
      end)
    chunks;
  stats.arena_hwm_words <- max stats.arena_hwm_words (Arena.hwm_words arena);
  stats.arena_grows <- stats.arena_grows + (Arena.grows arena - grows0);
  verdicts
