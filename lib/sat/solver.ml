type lit = int

let mklit v sign = (v lsl 1) lor Bool.to_int sign
let neg l = l lxor 1
let var_of_lit l = l lsr 1

type result = Sat | Unsat | Unknown

(* Literal values: 0 = unassigned, 1 = true, -1 = false.  Both
   polarities of a variable are set and cleared together, so the value of
   a literal is one array load.

   Clause literals live in one arena: a clause of length [len] occupies
   [len + 1] slots, its length followed by its literals, and [off] is the
   index of the first literal.  The arena holds the clauses in clause
   order; [reduce_db] compacts it and keeps that order. *)

type clause = {
  mutable off : int;  (* arena index of the first literal *)
  learnt : bool;
  mutable act : float;
  mutable lbd : int;  (* literal block distance at learn time *)
}

(* A watch list holds watchers of two ints each: a tag word and the
   clause index.  The tag of a binary clause's watcher is
   [2 * other + 1], where [other] is the clause's other literal; the tag
   of a longer clause's watcher is [2 * off]. *)
type ivec = { mutable a : int array; mutable n : int }

let ivec_make () = { a = Array.make 4 0; n = 0 }

let ivec_push2 v x y =
  if v.n + 2 > Array.length v.a then begin
    let a = Array.make (2 * Array.length v.a) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.a.(v.n + 1) <- y;
  v.n <- v.n + 2

type t = {
  mutable nvars : int;
  mutable clauses : clause array;  (* clause database *)
  mutable nclauses : int;
  mutable arena : int array;  (* every clause's length and literals *)
  mutable arena_n : int;
  mutable watches : ivec array;  (* per literal: watchers of the clauses watching it *)
  mutable values : int array;  (* per literal *)
  mutable levels : int array;  (* per var *)
  mutable reasons : int array;  (* per var: clause index or -1 *)
  mutable activity : float array;  (* per var *)
  mutable polarity : bool array;  (* per var: saved phase *)
  order : Heap.t;  (* branching order: max-heap on activity *)
  mutable trail : int array;  (* assigned literals in order *)
  mutable trail_n : int;
  mutable trail_lim : int array;  (* decision-level boundaries *)
  mutable trail_lim_n : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;  (* false once level-0 conflict found *)
  mutable model : bool array;
  mutable conflicts : int;
  mutable propagations : int;
  mutable seen : bool array;  (* scratch for analyze *)
  mutable lbd_stamp : int array;  (* scratch for LBD: per level *)
  mutable lbd_time : int;
  mutable max_learnts : float;
  mutable nlearnts : int;
  mutable restarts : int;
  mutable reduce_dbs : int;
  mutable learnts_removed : int;
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 16 { off = 0; learnt = false; act = 0.; lbd = 0 };
    nclauses = 0;
    arena = Array.make 64 0;
    arena_n = 0;
    watches = Array.init 16 (fun _ -> ivec_make ());
    values = [||];
    levels = [||];
    reasons = [||];
    activity = [||];
    polarity = [||];
    order = Heap.create ();
    trail = [||];
    trail_n = 0;
    trail_lim = [||];
    trail_lim_n = 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    model = [||];
    conflicts = 0;
    propagations = 0;
    seen = [||];
    lbd_stamp = [||];
    lbd_time = 0;
    max_learnts = 4000.;
    nlearnts = 0;
    restarts = 0;
    reduce_dbs = 0;
    learnts_removed = 0;
  }

let num_vars t = t.nvars
let num_conflicts t = t.conflicts
let num_propagations t = t.propagations

let grow_arrays t n =
  let old = Array.length t.levels in
  if n > old then begin
    let cap = max n (max 16 (2 * old)) in
    let copy_int src = let a = Array.make cap 0 in Array.blit src 0 a 0 old; a in
    let copy_m1 src = let a = Array.make cap (-1) in Array.blit src 0 a 0 old; a in
    let copy_f src = let a = Array.make cap 0. in Array.blit src 0 a 0 old; a in
    let copy_b src = let a = Array.make cap false in Array.blit src 0 a 0 old; a in
    let values = Array.make (2 * cap) 0 in
    Array.blit t.values 0 values 0 (2 * old);
    t.values <- values;
    t.levels <- copy_int t.levels;
    t.reasons <- copy_m1 t.reasons;
    t.activity <- copy_f t.activity;
    t.polarity <- copy_b t.polarity;
    t.seen <- copy_b t.seen;
    t.model <- copy_b t.model;
    t.lbd_stamp <- copy_int t.lbd_stamp;
    let trail = Array.make cap 0 in
    Array.blit t.trail 0 trail 0 t.trail_n;
    t.trail <- trail;
    let lim = Array.make cap 0 in
    Array.blit t.trail_lim 0 lim 0 t.trail_lim_n;
    t.trail_lim <- lim;
    let w = Array.make (2 * cap) (ivec_make ()) in
    Array.blit t.watches 0 w 0 (2 * old);
    for i = 2 * old to (2 * cap) - 1 do
      w.(i) <- ivec_make ()
    done;
    t.watches <- w
  end

(* --- variable-order heap (max-heap on activity) --- *)

(* Each call reads [t.activity] afresh, so the heap always sees the array
   [grow_arrays] last allocated. *)
let heap_insert t v = Heap.insert t.order t.activity v
let heap_pop t = Heap.pop t.order t.activity
let heap_bump t v = Heap.update t.order t.activity v

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  t.values.(2 * v) <- 0;
  t.values.((2 * v) + 1) <- 0;
  t.reasons.(v) <- -1;
  t.polarity.(v) <- false;
  heap_insert t v;
  v

(* --- values --- *)

let lit_value t l = t.values.(l)

let decision_level t = t.trail_lim_n

let enqueue t l reason =
  let v = l lsr 1 in
  t.values.(l) <- 1;
  t.values.(l lxor 1) <- -1;
  t.levels.(v) <- decision_level t;
  t.reasons.(v) <- reason;
  t.trail.(t.trail_n) <- l;
  t.trail_n <- t.trail_n + 1

(* --- clause management --- *)

(* Copy [lits] to the end of the arena; returns their offset. *)
let alloc_lits t lits =
  let len = Array.length lits in
  let need = t.arena_n + len + 1 in
  if need > Array.length t.arena then begin
    let a = Array.make (max need (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 a 0 t.arena_n;
    t.arena <- a
  end;
  t.arena.(t.arena_n) <- len;
  Array.blit lits 0 t.arena (t.arena_n + 1) len;
  t.arena_n <- need;
  need - len

let clause_len t c = t.arena.(c.off - 1)

let push_clause t c =
  if t.nclauses = Array.length t.clauses then begin
    let a = Array.make (2 * t.nclauses) c in
    Array.blit t.clauses 0 a 0 t.nclauses;
    t.clauses <- a
  end;
  t.clauses.(t.nclauses) <- c;
  t.nclauses <- t.nclauses + 1;
  t.nclauses - 1

let watch_clause t ci =
  let c = t.clauses.(ci) in
  let l0 = t.arena.(c.off) and l1 = t.arena.(c.off + 1) in
  if clause_len t c = 2 then begin
    ivec_push2 t.watches.(l0) ((l1 lsl 1) lor 1) ci;
    ivec_push2 t.watches.(l1) ((l0 lsl 1) lor 1) ci
  end
  else begin
    ivec_push2 t.watches.(l0) (c.off lsl 1) ci;
    ivec_push2 t.watches.(l1) (c.off lsl 1) ci
  end

(* Clauses may only be added at decision level 0 (between [solve] calls). *)
let add_clause t lits =
  if not t.ok then false
  else begin
    assert (decision_level t = 0);
    let lits = List.sort_uniq compare lits in
    if List.exists (fun l -> List.mem (neg l) lits) lits then true (* tautology *)
    else if List.exists (fun l -> lit_value t l > 0) lits then true (* satisfied *)
    else begin
      match List.filter (fun l -> lit_value t l = 0) lits with
      | [] ->
          t.ok <- false;
          false
      | [ l ] ->
          enqueue t l (-1);
          true
      | lits ->
          let c = { off = alloc_lits t (Array.of_list lits); learnt = false; act = 0.; lbd = 0 } in
          let ci = push_clause t c in
          watch_clause t ci;
          true
    end
  end

(* --- propagation --- *)

(* The watch list of the literal that just became false is walked in
   order.  A binary clause [other; np] is settled by the value of
   [other] alone; its watchers never move, and its literals are written
   in that order only when it implies [other] or conflicts, because
   [analyze] reads the order of a reason or conflict clause and nothing
   else does.  A longer clause is read from the arena at its watcher's
   offset: its false watched literal goes to position 1, and the watcher
   moves to the first later literal that is not false. *)
let propagate t =
  let values = t.values and arena = t.arena in
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_n do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let np = p lxor 1 in
    let ws = t.watches.(np) in
    let a = ws.a and n = ws.n in
    let i = ref 0 and j = ref 0 in
    while !i < n && !conflict < 0 do
      let w = a.(!i) and ci = a.(!i + 1) in
      i := !i + 2;
      if w land 1 = 1 then begin
        let other = w lsr 1 in
        a.(!j) <- w;
        a.(!j + 1) <- ci;
        j := !j + 2;
        let v = values.(other) in
        if v <= 0 then begin
          let off = t.clauses.(ci).off in
          arena.(off) <- other;
          arena.(off + 1) <- np;
          if v < 0 then conflict := ci else enqueue t other ci
        end
      end
      else begin
        let off = w lsr 1 in
        (* Ensure the false literal np is at position 1. *)
        if arena.(off) = np then begin
          arena.(off) <- arena.(off + 1);
          arena.(off + 1) <- np
        end;
        let first = arena.(off) in
        if values.(first) > 0 then begin
          (* Clause already satisfied: keep the watch. *)
          a.(!j) <- w;
          a.(!j + 1) <- ci;
          j := !j + 2
        end
        else begin
          (* Look for a new literal to watch. *)
          let stop = off + arena.(off - 1) in
          let k = ref (off + 2) in
          while !k < stop && values.(arena.(!k)) < 0 do
            incr k
          done;
          if !k < stop then begin
            let l = arena.(!k) in
            arena.(!k) <- np;
            arena.(off + 1) <- l;
            ivec_push2 t.watches.(l) w ci
          end
          else begin
            (* Unit or conflicting. *)
            a.(!j) <- w;
            a.(!j + 1) <- ci;
            j := !j + 2;
            if values.(first) < 0 then conflict := ci else enqueue t first ci
          end
        end
      end
    done;
    if !conflict >= 0 then begin
      (* Copy the remaining watches back. *)
      while !i < n do
        a.(!j) <- a.(!i);
        incr j;
        incr i
      done;
      t.qhead <- t.trail_n
    end;
    ws.n <- !j
  done;
  !conflict

(* --- activity --- *)

let var_decay = 0.95
let clause_decay = 0.999

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  heap_bump t v

let var_decay_activity t = t.var_inc <- t.var_inc /. var_decay

let clause_bump t c =
  c.act <- c.act +. t.cla_inc;
  if c.act > 1e20 then begin
    for i = 0 to t.nclauses - 1 do
      let c = t.clauses.(i) in
      if c.learnt then c.act <- c.act *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let clause_decay_activity t = t.cla_inc <- t.cla_inc /. clause_decay

(* --- backtracking --- *)

let cancel_until t level =
  if decision_level t > level then begin
    let bound = t.trail_lim.(level) in
    for i = t.trail_n - 1 downto bound do
      let l = t.trail.(i) in
      let v = l lsr 1 in
      t.values.(l) <- 0;
      t.values.(l lxor 1) <- 0;
      t.polarity.(v) <- l land 1 = 0;
      t.reasons.(v) <- -1;
      heap_insert t v
    done;
    t.trail_n <- bound;
    t.qhead <- bound;
    t.trail_lim_n <- level
  end

(* --- conflict analysis (first UIP) --- *)

let analyze t confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (t.trail_n - 1) in
  let confl = ref confl in
  let continue_ = ref true in
  while !continue_ do
    let c = t.clauses.(!confl) in
    if c.learnt then clause_bump t c;
    let arena = t.arena and off = c.off in
    let start = if !p = -1 then 0 else 1 in
    for k = off + start to off + arena.(off - 1) - 1 do
      let q = arena.(k) in
      let v = q lsr 1 in
      if (not t.seen.(v)) && t.levels.(v) > 0 then begin
        t.seen.(v) <- true;
        var_bump t v;
        if t.levels.(v) >= decision_level t then incr path
        else learnt := q :: !learnt
      end
    done;
    (* Find the next seen literal on the trail. *)
    while not t.seen.(t.trail.(!idx) lsr 1) do
      decr idx
    done;
    p := t.trail.(!idx);
    decr idx;
    t.seen.(!p lsr 1) <- false;
    decr path;
    if !path > 0 then begin
      confl := t.reasons.(!p lsr 1);
      assert (!confl >= 0)
    end
    else continue_ := false
  done;
  let learnt_lits = neg !p :: !learnt in
  (* Simple minimization: drop literals implied by others at level 0 is
     already handled; full self-subsumption left out for clarity. *)
  (* Compute backtrack level: second highest level in the clause. *)
  let bt =
    List.fold_left
      (fun acc l -> if l <> neg !p then max acc t.levels.(l lsr 1) else acc)
      0 !learnt
  in
  (* Clear seen flags. *)
  List.iter (fun l -> t.seen.(l lsr 1) <- false) !learnt;
  (learnt_lits, bt)

(* Literal block distance: number of distinct non-zero decision levels in
   the clause.  Low-LBD ("glue") clauses connect few decision levels and
   are the best predictors of future usefulness, so [reduce_db] keeps
   them. *)
let compute_lbd t lits =
  t.lbd_time <- t.lbd_time + 1;
  let n = ref 0 in
  List.iter
    (fun l ->
      let lv = t.levels.(l lsr 1) in
      if lv > 0 && t.lbd_stamp.(lv) <> t.lbd_time then begin
        t.lbd_stamp.(lv) <- t.lbd_time;
        incr n
      end)
    lits;
  !n

let record_learnt t lits =
  match lits with
  | [ l ] ->
      cancel_until t 0;
      if lit_value t l = 0 then enqueue t l (-1)
      else if lit_value t l < 0 then t.ok <- false
  | asserting :: _ ->
      let lbd = compute_lbd t lits in
      let arr = Array.of_list lits in
      (* Position 1 must hold a literal of the backtrack level for correct
         watching: pick the highest-level literal among the rest. *)
      let best = ref 1 in
      for k = 2 to Array.length arr - 1 do
        if t.levels.(arr.(k) lsr 1) > t.levels.(arr.(!best) lsr 1) then best := k
      done;
      if Array.length arr > 1 then begin
        let tmp = arr.(1) in
        arr.(1) <- arr.(!best);
        arr.(!best) <- tmp
      end;
      let c = { off = alloc_lits t arr; learnt = true; act = 0.; lbd } in
      clause_bump t c;
      let ci = push_clause t c in
      watch_clause t ci;
      t.nlearnts <- t.nlearnts + 1;
      enqueue t asserting ci
  | [] -> t.ok <- false

(* --- learnt-clause database reduction --- *)

let reduce_db t =
  (* Remove the worse half of the learnt clauses, ranked by LBD with
     activity as tie-break.  Glue clauses (LBD <= 2), binary clauses and
     current reasons are always kept.  Rebuild the database and all
     watch lists. *)
  let learnts = ref [] in
  for ci = 0 to t.nclauses - 1 do
    if t.clauses.(ci).learnt then learnts := ci :: !learnts
  done;
  let learnts = Array.of_list !learnts in
  Array.sort
    (fun a b ->
      let ca = t.clauses.(a) and cb = t.clauses.(b) in
      if ca.lbd <> cb.lbd then compare cb.lbd ca.lbd  (* worst LBD first *)
      else compare ca.act cb.act)
    learnts;
  let is_reason = Array.make t.nclauses false in
  for i = 0 to t.trail_n - 1 do
    let r = t.reasons.(t.trail.(i) lsr 1) in
    if r >= 0 then is_reason.(r) <- true
  done;
  let drop = Array.make t.nclauses false in
  let ndrop = Array.length learnts / 2 in
  let dropped = ref 0 in
  Array.iter
    (fun ci ->
      let c = t.clauses.(ci) in
      if
        !dropped < ndrop
        && (not is_reason.(ci))
        && clause_len t c > 2
        && c.lbd > 2
      then begin
        drop.(ci) <- true;
        incr dropped
      end)
    learnts;
  t.reduce_dbs <- t.reduce_dbs + 1;
  t.learnts_removed <- t.learnts_removed + !dropped;
  t.nlearnts <- t.nlearnts - !dropped;
  (* Compact the database and the arena; both keep clause order, so every
     kept clause moves towards the front of the arena. *)
  let remap = Array.make t.nclauses (-1) in
  let n = ref 0 and top = ref 0 in
  for ci = 0 to t.nclauses - 1 do
    if not drop.(ci) then begin
      remap.(ci) <- !n;
      let c = t.clauses.(ci) in
      let len = clause_len t c in
      Array.blit t.arena (c.off - 1) t.arena !top (len + 1);
      c.off <- !top + 1;
      top := !top + len + 1;
      t.clauses.(!n) <- c;
      incr n
    end
  done;
  t.nclauses <- !n;
  t.arena_n <- !top;
  for v = 0 to t.nvars - 1 do
    let r = t.reasons.(v) in
    if r >= 0 then t.reasons.(v) <- remap.(r)
  done;
  for l = 0 to (2 * t.nvars) - 1 do
    t.watches.(l).n <- 0
  done;
  for ci = 0 to t.nclauses - 1 do
    watch_clause t ci
  done

(* --- search --- *)

(* MiniSat's Luby restart sequence. *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

let pick_branch t =
  let rec go () =
    if Heap.is_empty t.order then -1
    else
      let v = heap_pop t in
      if t.values.(2 * v) = 0 then v else go ()
  in
  go ()

let new_decision_level t =
  t.trail_lim.(t.trail_lim_n) <- t.trail_n;
  t.trail_lim_n <- t.trail_lim_n + 1

(* Cancellation is polled every [cancel_poll_mask + 1] conflicts and
   decisions: every search iteration either conflicts or decides, so a
   cancelled solve unwinds within a bounded number of iterations without
   putting an atomic load on every loop turn. *)
let cancel_poll_mask = 63

let solve ?(assumptions = []) ?(conflict_limit = max_int) ?cancel t =
  if not t.ok then Unsat
  else begin
    let assumptions = Array.of_list assumptions in
    let local_conflicts = ref 0 in
    let decisions = ref 0 in
    let cancelled () =
      match cancel with None -> false | Some c -> Par.Cancel.poll c
    in
    let restart_num = ref 0 in
    let restart_limit = ref (int_of_float (100. *. luby 2. 0)) in
    let result = ref None in
    cancel_until t 0;
    if cancelled () then result := Some Unknown;
    while !result = None do
      let confl = propagate t in
      if confl >= 0 then begin
        t.conflicts <- t.conflicts + 1;
        incr local_conflicts;
        if decision_level t = 0 then begin
          t.ok <- false;
          result := Some Unsat
        end
        else if
          !local_conflicts >= conflict_limit
          || (!local_conflicts land cancel_poll_mask = 0 && cancelled ())
        then begin
          cancel_until t 0;
          result := Some Unknown
        end
        else begin
          let learnt, bt = analyze t confl in
          cancel_until t bt;
          record_learnt t learnt;
          if not t.ok then result := Some Unsat;
          var_decay_activity t;
          clause_decay_activity t;
          if float_of_int t.nlearnts > t.max_learnts then begin
            reduce_db t;
            t.max_learnts <- t.max_learnts *. 1.3
          end;
          if !local_conflicts >= !restart_limit then begin
            incr restart_num;
            t.restarts <- t.restarts + 1;
            restart_limit :=
              !local_conflicts
              + int_of_float (100. *. luby 2. !restart_num);
            cancel_until t 0
          end
        end
      end
      else begin
        (* No conflict: place assumptions, then decide. *)
        let dl = decision_level t in
        if dl < Array.length assumptions then begin
          let p = assumptions.(dl) in
          match lit_value t p with
          | 1 ->
              (* Already true: introduce an empty decision level. *)
              new_decision_level t
          | -1 -> result := Some Unsat
          | _ ->
              new_decision_level t;
              enqueue t p (-1)
        end
        else if !decisions land cancel_poll_mask = cancel_poll_mask && cancelled ()
        then begin
          cancel_until t 0;
          result := Some Unknown
        end
        else begin
          incr decisions;
          let v = pick_branch t in
          if v < 0 then begin
            for i = 0 to t.nvars - 1 do
              t.model.(i) <- t.values.(2 * i) > 0
            done;
            result := Some Sat
          end
          else begin
            new_decision_level t;
            enqueue t (mklit v (not t.polarity.(v))) (-1)
          end
        end
      end
    done;
    cancel_until t 0;
    match !result with Some r -> r | None -> assert false
  end

let model_value t v = t.model.(v)
let num_restarts t = t.restarts
let num_reduce_dbs t = t.reduce_dbs
let num_learnts_removed t = t.learnts_removed

(* --- level-0 primitives for preprocessing ------------------------------ *)

(* MiniSat's rebuildOrderHeap: the branching order keeps only the
   unassigned variables, in index order. *)
let rebuild_order t =
  assert (decision_level t = 0);
  Heap.clear t.order;
  for v = 0 to t.nvars - 1 do
    if t.values.(2 * v) = 0 then heap_insert t v
  done

let probe_budget = 2000

(* Failed-literal probing: assume a candidate literal at a fresh decision
   level and propagate; a conflict proves its negation at level 0. *)
let probe ?cancel t candidates =
  assert (decision_level t = 0);
  if t.ok && propagate t >= 0 then t.ok <- false;
  let budget = ref probe_budget in
  let rec go k = function
    | l :: rest when t.ok && !budget > 0 ->
        if k land 15 = 0 && Par.Cancel.poll_opt cancel then ()
        else begin
          if lit_value t l = 0 then begin
            decr budget;
            new_decision_level t;
            enqueue t l (-1);
            let confl = propagate t in
            cancel_until t 0;
            if confl >= 0 then begin
              enqueue t (neg l) (-1);
              if propagate t >= 0 then t.ok <- false
            end
          end;
          go (k + 1) rest
        end
    | _ -> ()
  in
  go 1 candidates
