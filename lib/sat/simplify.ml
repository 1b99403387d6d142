(* CNF preprocessing: bounded variable elimination, subsumption and
   self-subsuming resolution, equivalent-literal substitution over the
   binary implication graph, and XOR extraction with GF(2) elimination.

   The pipeline works on a standalone clause database (occurrence lists
   per variable, lazy deletion, level-0 unit propagation) and returns the
   simplified clauses together with a {e reconstruction stack} that maps
   any model of the simplified formula back to a model of the original
   one — the contract `Sat.Sweep` depends on, since every counter-example
   it reports is replayed on the miter by the fuzz oracle.

   Reconstruction follows MiniSat's SimpSolver: eliminating variable v
   stores the smaller phase's clauses (v's literal rotated to the front)
   followed by a unit record of the opposite literal.  [extend_model]
   processes records most-recent-first: the unit sets v's default value,
   then each stored clause whose other literals are all false overrides
   it.  Equivalent-literal substitution stores a direct v := literal
   binding.

   Every loop polls [Par.Cancel] (at pass boundaries and every ~64 inner
   iterations); a cancelled run returns the partially simplified — still
   equisatisfiable — database, so deadlines hold even when a check dies
   inside preprocessing. *)

let neg l = l lxor 1

type config = {
  bve : bool;  (* bounded variable elimination *)
  bve_grow : int;  (* resolvent count may exceed removed count by this *)
  bve_max_occ : int;  (* skip vars with more total occurrences *)
  bve_resolvent_max : int;  (* abort elimination on longer resolvents *)
  subsume : bool;  (* subsumption + self-subsuming resolution *)
  elit : bool;  (* equivalent-literal substitution (binary SCCs) *)
  xor_ : bool;  (* XOR extraction + Gaussian elimination *)
  xor_max_arity : int;
  probe : bool;  (* failed-literal probing (run by the solver) *)
  probe_limit : int;  (* max probes per simplify call *)
  rounds : int;  (* pipeline rounds (stops early at fixpoint) *)
}

let default_config =
  {
    bve = true;
    bve_grow = 0;
    bve_max_occ = 20;
    bve_resolvent_max = 20;
    subsume = true;
    elit = true;
    xor_ = true;
    xor_max_arity = 6;
    probe = true;
    probe_limit = 2000;
    rounds = 3;
  }

type stats = {
  mutable s_rounds : int;
  mutable s_units : int;  (* level-0 assignments fixed (incl. input units) *)
  mutable s_eliminated : int;  (* vars removed by BVE *)
  mutable s_subsumed : int;  (* clauses deleted by subsumption *)
  mutable s_strengthened : int;  (* literals removed by self-subsumption *)
  mutable s_elit : int;  (* vars substituted by an equivalent literal *)
  mutable s_xor_rows : int;  (* XOR constraints mined from clauses *)
  mutable s_xor_units : int;  (* units derived by Gaussian elimination *)
  mutable s_xor_equivs : int;  (* equivalences derived by Gaussian elim. *)
  mutable s_probes : int;  (* failed-literal probes attempted *)
  mutable s_failed_lits : int;  (* probes that failed (forced a unit) *)
  mutable s_cancelled : bool;
}

let mk_stats () =
  {
    s_rounds = 0;
    s_units = 0;
    s_eliminated = 0;
    s_subsumed = 0;
    s_strengthened = 0;
    s_elit = 0;
    s_xor_rows = 0;
    s_xor_units = 0;
    s_xor_equivs = 0;
    s_probes = 0;
    s_failed_lits = 0;
    s_cancelled = false;
  }

let add_stats dst src =
  dst.s_rounds <- dst.s_rounds + src.s_rounds;
  dst.s_units <- dst.s_units + src.s_units;
  dst.s_eliminated <- dst.s_eliminated + src.s_eliminated;
  dst.s_subsumed <- dst.s_subsumed + src.s_subsumed;
  dst.s_strengthened <- dst.s_strengthened + src.s_strengthened;
  dst.s_elit <- dst.s_elit + src.s_elit;
  dst.s_xor_rows <- dst.s_xor_rows + src.s_xor_rows;
  dst.s_xor_units <- dst.s_xor_units + src.s_xor_units;
  dst.s_xor_equivs <- dst.s_xor_equivs + src.s_xor_equivs;
  dst.s_probes <- dst.s_probes + src.s_probes;
  dst.s_failed_lits <- dst.s_failed_lits + src.s_failed_lits;
  dst.s_cancelled <- dst.s_cancelled || src.s_cancelled

type recon = R_clause of int array | R_subst of { v : int; lit : int }

type result = {
  clauses : int array list;
  units : int list;
  recon : recon list;  (* most recent record first *)
  unsat : bool;
  eliminated : bool array;
}

(* --- model reconstruction ---------------------------------------------- *)

let lit_true model l = model.(l lsr 1) <> (l land 1 = 1)

let extend_model recon model =
  List.iter
    (fun r ->
      match r with
      | R_subst { v; lit } -> model.(v) <- lit_true model lit
      | R_clause lits ->
        let n = Array.length lits in
        let forced = ref true in
        for i = 1 to n - 1 do
          if lit_true model lits.(i) then forced := false
        done;
        if !forced then begin
          let l0 = lits.(0) in
          model.(l0 lsr 1) <- l0 land 1 = 0
        end)
    recon

(* --- clause database --------------------------------------------------- *)

type ivec = { mutable a : int array; mutable n : int }

let iv_make () = { a = Array.make 4 0; n = 0 }

let iv_push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type db = {
  cfg : config;
  nvars : int;
  frozen : bool array;  (* never eliminated or substituted *)
  value : int array;  (* per var: 0 unknown, 1 true, -1 false *)
  eliminated : bool array;
  mutable cls : int array array;  (* sorted literal arrays *)
  mutable csig : int array;  (* var bloom per clause *)
  mutable dead : bool array;
  mutable in_tq : bool array;  (* clause queued for subsumption *)
  mutable ncls : int;
  occ : ivec array;  (* per var: clause indices (stale entries allowed) *)
  uq : int Queue.t;  (* pending unit literals *)
  tq : int Queue.t;  (* subsumption work queue *)
  mutable recon : recon list;
  mutable unsat : bool;
  mutable halted : bool;  (* cancellation observed *)
  st : stats;
}

let lit_val db l =
  let v = db.value.(l lsr 1) in
  if v = 0 then 0 else if l land 1 = 1 then -v else v

let clause_sig lits =
  Array.fold_left (fun acc l -> acc lor (1 lsl ((l lsr 1) land 31))) 0 lits

let kill db ci = db.dead.(ci) <- true

let touch db ci =
  if not db.in_tq.(ci) then begin
    db.in_tq.(ci) <- true;
    Queue.push ci db.tq
  end

let grow_cls db =
  let cap = Array.length db.cls in
  if db.ncls = cap then begin
    let ncap = max 16 (2 * cap) in
    let cls = Array.make ncap [||] in
    Array.blit db.cls 0 cls 0 cap;
    db.cls <- cls;
    let csig = Array.make ncap 0 in
    Array.blit db.csig 0 csig 0 cap;
    db.csig <- csig;
    let dead = Array.make ncap false in
    Array.blit db.dead 0 dead 0 cap;
    db.dead <- dead;
    let in_tq = Array.make ncap false in
    Array.blit db.in_tq 0 in_tq 0 cap;
    db.in_tq <- in_tq
  end

let rec sorted_taut = function
  | a :: (b :: _ as rest) -> if a lxor 1 = b then true else sorted_taut rest
  | _ -> false

(* Insert a clause given as a raw literal list: sorts, dedupes, drops
   tautologies and satisfied clauses, strips false literals, queues units,
   stores the rest with occurrence/touched bookkeeping. *)
let add_lits db lits =
  (* Deliberately not gated on [halted]: a cancelled run may still be
     mid-rewrite (kill + re-add), and dropping the re-add would lose a
     constraint.  Cancellation only stops starting new work. *)
  if not db.unsat then begin
    let lits = List.sort_uniq compare lits in
    if not (sorted_taut lits) then
      if not (List.exists (fun l -> lit_val db l > 0) lits) then begin
        match List.filter (fun l -> lit_val db l = 0) lits with
        | [] -> db.unsat <- true
        | [ l ] -> Queue.push l db.uq
        | lits ->
          grow_cls db;
          let arr = Array.of_list lits in
          let ci = db.ncls in
          db.ncls <- ci + 1;
          db.cls.(ci) <- arr;
          db.csig.(ci) <- clause_sig arr;
          db.dead.(ci) <- false;
          db.in_tq.(ci) <- false;
          Array.iter (fun l -> iv_push db.occ.(l lsr 1) ci) arr;
          touch db ci
      end
  end

let array_mem x a =
  let n = Array.length a in
  let rec go i = i < n && (a.(i) = x || go (i + 1)) in
  go 0

(* Remove literal [l] from live clause [ci] (it must be present). *)
let remove_lit db ci l =
  let lits = db.cls.(ci) in
  let n = Array.length lits in
  if n = 2 then begin
    let keep = if lits.(0) = l then lits.(1) else lits.(0) in
    kill db ci;
    Queue.push keep db.uq
  end
  else begin
    let out = Array.make (n - 1) 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if lits.(i) <> l then begin
        out.(!j) <- lits.(i);
        incr j
      end
    done;
    db.cls.(ci) <- out;
    db.csig.(ci) <- clause_sig out;
    touch db ci
  end

(* Level-0 unit propagation over the occurrence lists.  Runs to fixpoint
   even under cancellation — queued units come from killed clauses, so
   dropping them would be unsound, and the queue drains in bounded time. *)
let propagate db =
  while (not db.unsat) && not (Queue.is_empty db.uq) do
    let l = Queue.pop db.uq in
    let v = l lsr 1 in
    let want = if l land 1 = 1 then -1 else 1 in
    let cur = db.value.(v) in
    if cur <> 0 then begin
      if cur <> want then db.unsat <- true
    end
    else begin
      db.value.(v) <- want;
      db.st.s_units <- db.st.s_units + 1;
      let o = db.occ.(v) in
      let n = o.n in
      let i = ref 0 in
      while (not db.unsat) && !i < n do
        let ci = o.a.(!i) in
        incr i;
        if not db.dead.(ci) then begin
          let lits = db.cls.(ci) in
          if array_mem l lits then kill db ci
          else if array_mem (neg l) lits then remove_lit db ci (neg l)
        end
      done
    end
  done

(* --- subsumption + self-subsuming resolution --------------------------- *)

type sub = No | Sub | Str of int

(* [subsumes c d] on sorted clauses: [Sub] when c ⊆ d; [Str l] when l ∈ c,
   ¬l ∈ d and c∖{l} ⊆ d∖{¬l} (the resolvent on l subsumes d, so ¬l can be
   removed from d). *)
let subsumes c d =
  let nc = Array.length c and nd = Array.length d in
  let rec go i j flip =
    if i >= nc then match flip with None -> Sub | Some l -> Str l
    else if j >= nd then No
    else
      let lc = c.(i) and ld = d.(j) in
      if lc = ld then go (i + 1) (j + 1) flip
      else if lc lxor 1 = ld then
        if flip = None then go (i + 1) (j + 1) (Some lc) else No
      else if ld < lc then go i (j + 1) flip
      else No
  in
  go 0 0 None

let poll_cancel db cancel =
  if (not db.halted) && Par.Cancel.poll_opt cancel then begin
    db.halted <- true;
    db.st.s_cancelled <- true
  end

(* Drain the touched queue: each queued clause is checked against the
   occurrence list of its least-occurring variable for clauses it subsumes
   or strengthens.  Strengthened clauses re-enter the queue, so the pass
   reaches a fixpoint. *)
let subsume_pass db cancel =
  let iter = ref 0 in
  while (not (db.unsat || db.halted)) && not (Queue.is_empty db.tq) do
    propagate db;
    if not (db.unsat || Queue.is_empty db.tq) then begin
      incr iter;
      if !iter land 63 = 0 then poll_cancel db cancel;
      let ci = Queue.pop db.tq in
      db.in_tq.(ci) <- false;
      if not db.dead.(ci) then begin
        let c = db.cls.(ci) in
        let cs = db.csig.(ci) in
        let nc = Array.length c in
        (* Scan the occurrence list of the least-occurring variable. *)
        let best = ref (c.(0) lsr 1) in
        Array.iter
          (fun l ->
            let v = l lsr 1 in
            if db.occ.(v).n < db.occ.(!best).n then best := v)
          c;
        let o = db.occ.(!best) in
        let n = o.n in
        let k = ref 0 in
        while (not db.dead.(ci)) && !k < n do
          let cj = o.a.(!k) in
          incr k;
          if
            cj <> ci
            && not db.dead.(cj)
            && nc <= Array.length db.cls.(cj)
            && cs land lnot db.csig.(cj) = 0
          then
            match subsumes c db.cls.(cj) with
            | No -> ()
            | Sub ->
              kill db cj;
              db.st.s_subsumed <- db.st.s_subsumed + 1
            | Str l ->
              db.st.s_strengthened <- db.st.s_strengthened + 1;
              remove_lit db cj (neg l)
        done
      end
    end
  done

(* --- equivalent-literal substitution ----------------------------------- *)

(* Replace every literal of [u] by the corresponding literal of [rl]
   (u's positive literal ≡ rl).  Rewritten clauses go through [add_lits],
   which handles collapses to units and tautologies. *)
let subst_var db u rl =
  db.recon <- R_subst { v = u; lit = rl } :: db.recon;
  db.eliminated.(u) <- true;
  db.st.s_elit <- db.st.s_elit + 1;
  let o = db.occ.(u) in
  let n = o.n in
  for i = 0 to n - 1 do
    let ci = o.a.(i) in
    if not db.dead.(ci) then begin
      let lits = db.cls.(ci) in
      if Array.exists (fun l -> l lsr 1 = u) lits then begin
        kill db ci;
        add_lits db
          (Array.fold_left
             (fun acc l -> (if l lsr 1 = u then rl lxor (l land 1) else l) :: acc)
             [] lits)
      end
    end
  done

let elit_pass db cancel =
  let bimp = Bimp.create ~nvars:db.nvars () in
  let nbin = ref 0 in
  for ci = 0 to db.ncls - 1 do
    if (not db.dead.(ci)) && Array.length db.cls.(ci) = 2 then begin
      Bimp.add_clause bimp db.cls.(ci).(0) db.cls.(ci).(1);
      incr nbin
    end
  done;
  if !nbin > 0 && not (db.unsat || db.halted) then begin
    let comp, ncomp = Bimp.sccs bimp in
    let members = Array.make ncomp [] in
    for l = (2 * db.nvars) - 1 downto 0 do
      if l < Array.length comp && comp.(l) >= 0 then begin
        let v = l lsr 1 in
        if db.value.(v) = 0 && not db.eliminated.(v) then
          members.(comp.(l)) <- l :: members.(comp.(l))
      end
    done;
    let g = ref 0 in
    while (not (db.unsat || db.halted)) && !g < ncomp do
      if !g land 63 = 0 then poll_cancel db cancel;
      (match (if db.halted then [] else members.(!g)) with
      | [] | [ _ ] -> ()
      | group ->
        (* Sorted ascending: a variable's two literals are adjacent. *)
        if sorted_taut group then db.unsat <- true
        else begin
          let frozen_members = List.filter (fun l -> db.frozen.(l lsr 1)) group in
          let repr =
            match frozen_members with f :: _ -> f | [] -> List.hd group
          in
          if not db.eliminated.(repr lsr 1) then
            List.iter
              (fun m ->
                let u = m lsr 1 in
                if
                  m <> repr
                  && u <> repr lsr 1
                  && (not db.frozen.(u))
                  && (not db.eliminated.(u))
                  && db.value.(u) = 0
                then subst_var db u (repr lxor (m land 1)))
              group
        end);
      incr g
    done;
    propagate db
  end

(* --- XOR mining -------------------------------------------------------- *)

let xor_pass db =
  if not (db.unsat || db.halted) then begin
    let cs = ref [] in
    for ci = db.ncls - 1 downto 0 do
      if not db.dead.(ci) then begin
        let len = Array.length db.cls.(ci) in
        if len >= 3 && len <= db.cfg.xor_max_arity then cs := db.cls.(ci) :: !cs
      end
    done;
    let rows = Xor.extract ~max_arity:db.cfg.xor_max_arity !cs in
    db.st.s_xor_rows <- db.st.s_xor_rows + List.length rows;
    if rows <> [] then begin
      List.iter
        (fun fact ->
          match fact with
          | Xor.Unsat -> db.unsat <- true
          | Xor.Unit (v, b) ->
            db.st.s_xor_units <- db.st.s_xor_units + 1;
            Queue.push ((v lsl 1) lor if b then 0 else 1) db.uq
          | Xor.Equiv (x, y, s) ->
            db.st.s_xor_equivs <- db.st.s_xor_equivs + 1;
            let ly = (y lsl 1) lor if s then 1 else 0 in
            add_lits db [ (x lsl 1) lor 1; ly ];
            add_lits db [ x lsl 1; neg ly ])
        (Xor.eliminate rows);
      propagate db
    end
  end

(* --- bounded variable elimination -------------------------------------- *)

exception Too_big

let resolve db p n v =
  let pl = v lsl 1 and nl = (v lsl 1) lor 1 in
  let acc = ref [] in
  Array.iter (fun l -> if l <> pl then acc := l :: !acc) db.cls.(p);
  Array.iter (fun l -> if l <> nl then acc := l :: !acc) db.cls.(n);
  let merged = List.sort_uniq compare !acc in
  if sorted_taut merged then None else Some merged

let try_eliminate db v =
  if
    (not db.frozen.(v))
    && (not db.eliminated.(v))
    && db.value.(v) = 0
    && not (db.unsat || db.halted)
  then begin
    let pl = v lsl 1 in
    let pos = ref [] and nps = ref [] in
    let np = ref 0 and nn = ref 0 in
    let o = db.occ.(v) in
    for i = 0 to o.n - 1 do
      let ci = o.a.(i) in
      if not db.dead.(ci) then
        if array_mem pl db.cls.(ci) then begin
          if not (List.mem ci !pos) then begin
            pos := ci :: !pos;
            incr np
          end
        end
        else if array_mem (neg pl) db.cls.(ci) then
          if not (List.mem ci !nps) then begin
            nps := ci :: !nps;
            incr nn
          end
    done;
    if !np + !nn <= db.cfg.bve_max_occ then begin
      match
        let resolvents = ref [] in
        let count = ref 0 in
        (try
           List.iter
             (fun p ->
               List.iter
                 (fun n ->
                   match resolve db p n v with
                   | None -> ()
                   | Some r ->
                     if List.length r > db.cfg.bve_resolvent_max then
                       raise_notrace Too_big;
                     incr count;
                     if !count > !np + !nn + db.cfg.bve_grow then
                       raise_notrace Too_big;
                     resolvents := r :: !resolvents)
                 !nps)
             !pos;
           Some !resolvents
         with Too_big -> None)
      with
      | None -> ()
      | Some resolvents ->
        (* Commit: store the smaller phase for model reconstruction (the
           eliminated literal rotated to the front, then the opposite
           unit — the unit ends up at the head of the stack so extension
           sets the default value first and clauses override it). *)
        let store_pos = !np <= !nn in
        let phase_lit = if store_pos then pl else neg pl in
        List.iter
          (fun ci ->
            let lits = db.cls.(ci) in
            let arr = Array.copy lits in
            let k = ref 0 in
            Array.iteri (fun i l -> if l = phase_lit then k := i) lits;
            arr.(!k) <- arr.(0);
            arr.(0) <- phase_lit;
            db.recon <- R_clause arr :: db.recon)
          (if store_pos then !pos else !nps);
        db.recon <- R_clause [| neg phase_lit |] :: db.recon;
        List.iter (kill db) !pos;
        List.iter (kill db) !nps;
        db.eliminated.(v) <- true;
        db.st.s_eliminated <- db.st.s_eliminated + 1;
        List.iter (add_lits db) resolvents;
        propagate db
    end
  end

let bve_pass db cancel =
  let v = ref 0 in
  while (not (db.unsat || db.halted)) && !v < db.nvars do
    if !v land 63 = 0 then poll_cancel db cancel;
    try_eliminate db !v;
    incr v
  done

(* --- driver ------------------------------------------------------------ *)

let run ?(config = default_config) ?cancel ~stats ~nvars ~frozen ~units clauses =
  let db =
    {
      cfg = config;
      nvars;
      frozen;
      value = Array.make (max 1 nvars) 0;
      eliminated = Array.make (max 1 nvars) false;
      cls = Array.make 16 [||];
      csig = Array.make 16 0;
      dead = Array.make 16 false;
      in_tq = Array.make 16 false;
      ncls = 0;
      occ = Array.init (max 1 nvars) (fun _ -> iv_make ());
      uq = Queue.create ();
      tq = Queue.create ();
      recon = [];
      unsat = false;
      halted = false;
      st = stats;
    }
  in
  List.iter (fun l -> Queue.push l db.uq) units;
  List.iter (fun c -> add_lits db (Array.to_list c)) clauses;
  propagate db;
  poll_cancel db cancel;
  let progress () =
    stats.s_units + stats.s_eliminated + stats.s_subsumed + stats.s_strengthened
    + stats.s_elit + stats.s_xor_units + stats.s_xor_equivs
  in
  let round = ref 0 in
  let last = ref (-1) in
  while (not (db.unsat || db.halted)) && !round < config.rounds && progress () <> !last
  do
    last := progress ();
    incr round;
    stats.s_rounds <- stats.s_rounds + 1;
    if config.elit then elit_pass db cancel;
    poll_cancel db cancel;
    if config.subsume then subsume_pass db cancel;
    poll_cancel db cancel;
    if config.xor_ then xor_pass db;
    poll_cancel db cancel;
    if config.bve then bve_pass db cancel;
    poll_cancel db cancel;
    propagate db
  done;
  (* Drain any pending units even on early exit so the result is closed. *)
  propagate db;
  let clauses = ref [] in
  for ci = db.ncls - 1 downto 0 do
    if not db.dead.(ci) then clauses := db.cls.(ci) :: !clauses
  done;
  let units = ref [] in
  for v = nvars - 1 downto 0 do
    if db.value.(v) <> 0 then
      units := ((v lsl 1) lor if db.value.(v) > 0 then 0 else 1) :: !units
  done;
  {
    clauses = !clauses;
    units = !units;
    recon = db.recon;
    unsat = db.unsat;
    eliminated = db.eliminated;
  }
