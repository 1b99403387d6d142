(* Indexed binary max-heap over small non-negative integers.

   The heap does not own the priorities: every operation that compares
   takes the caller's activity array, so the caller may reallocate it
   between operations.  The element with the highest activity sits at
   the top.  Sifting moves a hole instead of swapping pairs; it places
   every element exactly where the pairwise-swap version would, ties
   included, because each step compares against the element being
   sifted just as the swap version compares against the element it has
   swapped into place.  After an element's activity changes, [update]
   restores the heap property from that element alone in O(log n). *)

type t = {
  mutable heap : int array;  (* elements, heap-ordered *)
  mutable n : int;
  mutable pos : int array;  (* per element: index in [heap], or -1 *)
}

let create ?(capacity = 16) () =
  { heap = Array.make (max 1 capacity) 0; n = 0; pos = Array.make (max 1 capacity) (-1) }

let size t = t.n
let is_empty t = t.n = 0

(* Make room for element ids up to [e] inclusive. *)
let reserve t e =
  let old = Array.length t.pos in
  if e >= old then begin
    let cap = max (e + 1) (2 * old) in
    let pos = Array.make cap (-1) in
    Array.blit t.pos 0 pos 0 old;
    t.pos <- pos
  end;
  if t.n >= Array.length t.heap then begin
    let heap = Array.make (max (t.n + 1) (2 * Array.length t.heap)) 0 in
    Array.blit t.heap 0 heap 0 t.n;
    t.heap <- heap
  end

let mem t e = e < Array.length t.pos && t.pos.(e) >= 0

(* Move the element at [i] up while it beats its parent. *)
let sift_up t (act : float array) i =
  let heap = t.heap and pos = t.pos in
  let x = heap.(i) in
  let ax = act.(x) in
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    ax > act.(heap.(p))
  do
    let p = (!i - 1) / 2 in
    let y = heap.(p) in
    heap.(!i) <- y;
    pos.(y) <- !i;
    i := p
  done;
  heap.(!i) <- x;
  pos.(x) <- !i

(* Move the element at [i] down while a child beats it: the left child
   when it beats the element, then the right child when it beats the
   winner so far. *)
let sift_down t (act : float array) i =
  let heap = t.heap and pos = t.pos and n = t.n in
  let x = heap.(i) in
  let ax = act.(x) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let best = if l < n && act.(heap.(l)) > ax then l else -1 in
    let best =
      if r < n && act.(heap.(r)) > (if best < 0 then ax else act.(heap.(l))) then r
      else best
    in
    if best < 0 then moving := false
    else begin
      let y = heap.(best) in
      heap.(!i) <- y;
      pos.(y) <- !i;
      i := best
    end
  done;
  heap.(!i) <- x;
  pos.(x) <- !i

let insert t act e =
  reserve t e;
  if t.pos.(e) < 0 then begin
    t.heap.(t.n) <- e;
    t.pos.(e) <- t.n;
    t.n <- t.n + 1;
    sift_up t act (t.n - 1)
  end

let pop t act =
  let e = t.heap.(0) in
  t.n <- t.n - 1;
  t.pos.(e) <- -1;
  if t.n > 0 then begin
    t.heap.(0) <- t.heap.(t.n);
    t.pos.(t.heap.(0)) <- 0;
    sift_down t act 0
  end;
  e

let update t act e =
  if mem t e then begin
    sift_up t act t.pos.(e);
    sift_down t act t.pos.(e)
  end

let clear t =
  for i = 0 to t.n - 1 do
    t.pos.(t.heap.(i)) <- -1
  done;
  t.n <- 0
