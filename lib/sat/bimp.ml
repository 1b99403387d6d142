(* Binary implication graph.

   Literals use the solver encoding: lit = 2*var lor sign, [neg l = l lxor 1].
   A binary clause (a \/ b) contributes the two implication edges
   ¬a -> b and ¬b -> a.  The graph supports two consumers:

   - equivalent-literal detection: literals in the same strongly connected
     component are equal in every model, so one representative can replace
     the whole class (2-SAT style).  If l and ¬l share a component the
     formula is unsatisfiable.
   - failed-literal probing: roots with outgoing edges are the candidates
     whose propagation covers the most of the graph. *)

type t = {
  mutable succ : int list array;  (* indexed by literal *)
  mutable nlits : int;
}

let create ?(nvars = 0) () = { succ = Array.make (max 2 (2 * nvars)) []; nlits = 2 * nvars }

let ensure t nlits =
  if nlits > Array.length t.succ then begin
    let succ = Array.make (max nlits (2 * Array.length t.succ)) [] in
    Array.blit t.succ 0 succ 0 t.nlits;
    t.succ <- succ
  end;
  if nlits > t.nlits then t.nlits <- nlits

(* Register the binary clause (a \/ b). *)
let add_clause t a b =
  ensure t (1 + max a b + 1);
  let na = a lxor 1 and nb = b lxor 1 in
  t.succ.(na) <- b :: t.succ.(na);
  t.succ.(nb) <- a :: t.succ.(nb)

(* Iterative Tarjan.  Returns [comp] mapping each literal to a component
   id; literals with equal ids are equivalent.  The graph is skew-symmetric
   (edge u->v iff ¬v->¬u) so components pair up: the component of ¬l is
   determined by the component of l, which consumers exploit when picking
   representatives. *)
let sccs t =
  let n = t.nlits in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Stack.create () in
  let comp = Array.make n (-1) in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Explicit DFS stack of (literal, remaining successors). *)
  let work = Stack.create () in
  let visit root =
    Stack.push (root, ref t.succ.(root)) work;
    index.(root) <- !next_index;
    low.(root) <- !next_index;
    incr next_index;
    Stack.push root stack;
    on_stack.(root) <- true;
    while not (Stack.is_empty work) do
      let v, rest = Stack.top work in
      match !rest with
      | w :: tl ->
        rest := tl;
        if index.(w) < 0 then begin
          index.(w) <- !next_index;
          low.(w) <- !next_index;
          incr next_index;
          Stack.push w stack;
          on_stack.(w) <- true;
          Stack.push (w, ref t.succ.(w)) work
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
      | [] ->
        ignore (Stack.pop work);
        if low.(v) = index.(v) then begin
          let continue = ref true in
          while !continue do
            let w = Stack.pop stack in
            on_stack.(w) <- false;
            comp.(w) <- !next_comp;
            if w = v then continue := false
          done;
          incr next_comp
        end;
        if not (Stack.is_empty work) then begin
          let p, _ = Stack.top work in
          low.(p) <- min low.(p) low.(v)
        end
    done
  in
  for l = 0 to n - 1 do
    if index.(l) < 0 then visit l
  done;
  (comp, !next_comp)

(* Probing candidates: literals that imply something but are implied by
   nothing (roots of the implication dag).  Propagating such a literal
   reaches the largest closed set of consequences. *)
let probe_candidates t =
  let n = t.nlits in
  let has_pred = Array.make n false in
  for l = 0 to n - 1 do
    List.iter (fun w -> if w < n then has_pred.(w) <- true) t.succ.(l)
  done;
  let out = ref [] in
  for l = n - 1 downto 0 do
    if t.succ.(l) <> [] && not has_pred.(l) then out := l :: !out
  done;
  !out
