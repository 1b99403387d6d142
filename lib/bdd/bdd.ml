exception Node_limit
exception Timeout

type node = int

type man = {
  num_vars : int;
  node_limit : int;
  step_limit : int;
  cancel : Par.Cancel.t option;
  mutable steps : int;  (* every [mk] call, cache hits included *)
  mutable var_ : int array;  (* per node: variable index; terminals: num_vars *)
  mutable lo : int array;
  mutable hi : int array;
  mutable n : int;
  mutable unique : int array;
      (* open-addressing table of node ids hashed on (var, lo, hi);
         0 marks an empty slot (ids 0 and 1 are the terminals, never
         stored).  Its length is a power of two, at least twice the
         number of stored nodes. *)
  cache_and : (int, int) Hashtbl.t;
  cache_xor : (int, int) Hashtbl.t;
  cache_not : (int, int) Hashtbl.t;
}

(* Injective for node ids below 2^24 (the node limit is capped below). *)
let pack2 a b = (a lsl 24) lor b

let create ?(node_limit = 2_000_000) ?(step_limit = max_int) ?cancel ~num_vars () =
  if node_limit > 1 lsl 24 then invalid_arg "Bdd.create: node_limit above 2^24";
  let cap = 1024 in
  let m =
    {
      num_vars;
      node_limit;
      step_limit;
      cancel;
      steps = 0;
      var_ = Array.make cap num_vars;
      lo = Array.make cap 0;
      hi = Array.make cap 0;
      n = 2;
      unique = Array.make 4096 0;
      cache_and = Hashtbl.create 4096;
      cache_xor = Hashtbl.create 4096;
      cache_not = Hashtbl.create 1024;
    }
  in
  (* Node 0 = false, node 1 = true.  Terminal [var_] sentinels sort last. *)
  m.lo.(0) <- 0;
  m.hi.(0) <- 0;
  m.lo.(1) <- 1;
  m.hi.(1) <- 1;
  m

let is_false _ n = n = 0
let is_true _ n = n = 1
let equal (a : node) b = a = b
let size m = m.n
let steps m = m.steps

let hash v lo hi =
  let h = (((v * 0x9e3779b1) + lo) * 0x85ebca77 + hi) * 0xc2b2ae3d in
  h lxor (h lsr 29)

(* The slot of node (v, lo, hi) in the unique table or, when it is not
   stored, the empty slot where it belongs (linear probing). *)
let find_slot m v lo hi =
  let table = m.unique in
  let mask = Array.length table - 1 in
  let i = ref (hash v lo hi land mask) in
  while
    let id = table.(!i) in
    id <> 0 && not (m.var_.(id) = v && m.lo.(id) = lo && m.hi.(id) = hi)
  do
    i := (!i + 1) land mask
  done;
  !i

(* Double the unique table and re-insert every stored node. *)
let grow_unique m =
  m.unique <- Array.make (2 * Array.length m.unique) 0;
  for id = 2 to m.n - 1 do
    m.unique.(find_slot m m.var_.(id) m.lo.(id) m.hi.(id)) <- id
  done

let add_node m v lo hi i =
  if m.n >= m.node_limit then raise Node_limit;
  if m.n = Array.length m.var_ then begin
    let cap = 2 * m.n in
    let grow a def =
      let b = Array.make cap def in
      Array.blit a 0 b 0 m.n;
      b
    in
    m.var_ <- grow m.var_ m.num_vars;
    m.lo <- grow m.lo 0;
    m.hi <- grow m.hi 0
  end;
  let id = m.n in
  m.n <- id + 1;
  m.var_.(id) <- v;
  m.lo.(id) <- lo;
  m.hi.(id) <- hi;
  m.unique.(i) <- id;
  if 2 * (m.n - 2) > Array.length m.unique then grow_unique m;
  id

(* The step budget counts every [mk] call — cache hits included — because
   a pathological variable order can spend unbounded time re-traversing
   memoised structure without allocating a single fresh node, which the
   node limit alone never catches. *)
let mk m v lo hi =
  m.steps <- m.steps + 1;
  if m.steps >= m.step_limit then raise Timeout;
  (match m.cancel with
  | Some c when m.steps land 255 = 0 && Par.Cancel.poll c -> raise Timeout
  | _ -> ());
  if lo = hi then lo
  else begin
    let i = find_slot m v lo hi in
    let id = m.unique.(i) in
    if id <> 0 then id else add_node m v lo hi i
  end

let var m i =
  if i < 0 || i >= m.num_vars then invalid_arg "Bdd.var: index out of range";
  mk m i 0 1

let rec bdd_not m f =
  if f = 0 then 1
  else if f = 1 then 0
  else
    match Hashtbl.find_opt m.cache_not f with
    | Some r -> r
    | None ->
        let r = mk m m.var_.(f) (bdd_not m m.lo.(f)) (bdd_not m m.hi.(f)) in
        Hashtbl.replace m.cache_not f r;
        r

let rec bdd_and m f g =
  if f = g then f
  else if f = 0 || g = 0 then 0
  else if f = 1 then g
  else if g = 1 then f
  else begin
    let f, g = if f <= g then (f, g) else (g, f) in
    let key = pack2 f g in
    match Hashtbl.find_opt m.cache_and key with
    | Some r -> r
    | None ->
        let vf = m.var_.(f) and vg = m.var_.(g) in
        let v = min vf vg in
        let f0 = if vf = v then m.lo.(f) else f
        and f1 = if vf = v then m.hi.(f) else f in
        let g0 = if vg = v then m.lo.(g) else g
        and g1 = if vg = v then m.hi.(g) else g in
        let r = mk m v (bdd_and m f0 g0) (bdd_and m f1 g1) in
        Hashtbl.replace m.cache_and key r;
        r
  end

let rec bdd_xor m f g =
  if f = g then 0
  else if f = 0 then g
  else if g = 0 then f
  else if f = 1 then bdd_not m g
  else if g = 1 then bdd_not m f
  else begin
    let f, g = if f <= g then (f, g) else (g, f) in
    let key = pack2 f g in
    match Hashtbl.find_opt m.cache_xor key with
    | Some r -> r
    | None ->
        let vf = m.var_.(f) and vg = m.var_.(g) in
        let v = min vf vg in
        let f0 = if vf = v then m.lo.(f) else f
        and f1 = if vf = v then m.hi.(f) else f in
        let g0 = if vg = v then m.lo.(g) else g
        and g1 = if vg = v then m.hi.(g) else g in
        let r = mk m v (bdd_xor m f0 g0) (bdd_xor m f1 g1) in
        Hashtbl.replace m.cache_xor key r;
        r
  end

let bdd_or m f g = bdd_not m (bdd_and m (bdd_not m f) (bdd_not m g))
let ite m f g h = bdd_or m (bdd_and m f g) (bdd_and m (bdd_not m f) h)

let any_sat m f =
  if f = 0 then None
  else begin
    let a = Array.make m.num_vars false in
    let rec walk f =
      if f = 1 then ()
      else if m.lo.(f) <> 0 then walk m.lo.(f)
      else begin
        a.(m.var_.(f)) <- true;
        walk m.hi.(f)
      end
    in
    walk f;
    Some a
  end

let count_sat m f =
  let memo = Hashtbl.create 256 in
  (* Fraction of assignments satisfying f below variable v. *)
  let rec frac f =
    if f = 0 then 0.
    else if f = 1 then 1.
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
          let r = 0.5 *. (frac m.lo.(f) +. frac m.hi.(f)) in
          Hashtbl.replace memo f r;
          r
  in
  frac f *. (2. ** float_of_int m.num_vars)

let eval m f a =
  let rec go f = if f <= 1 then f = 1 else if a.(m.var_.(f)) then go m.hi.(f) else go m.lo.(f) in
  go f

(* [lit_bdd m g] maps literals of [g] to their BDDs in [m].  It keeps
   one node -> BDD map (-1 = not built) across calls, and each call walks
   the literal's cone with an explicit stack that stops at mapped nodes:
   every AND becomes a BDD once, however many outputs share it, and no
   walk leaves the cone. *)
let lit_bdd m g =
  let module N = Aig.Network in
  let map = Array.make (N.num_nodes g) (-1) in
  map.(0) <- 0;
  let of_lit l =
    let b = map.(Aig.Lit.node l) in
    if Aig.Lit.is_compl l then bdd_not m b else b
  in
  fun l ->
    let stack = Stack.create () in
    Stack.push (Aig.Lit.node l) stack;
    while not (Stack.is_empty stack) do
      let n = Stack.top stack in
      if map.(n) >= 0 then ignore (Stack.pop stack)
      else if N.is_pi g n then map.(n) <- var m (N.pi_index g n)
      else begin
        let f0 = N.fanin0 g n and f1 = N.fanin1 g n in
        if map.(Aig.Lit.node f0) < 0 then Stack.push (Aig.Lit.node f0) stack
        else if map.(Aig.Lit.node f1) < 0 then Stack.push (Aig.Lit.node f1) stack
        else map.(n) <- bdd_and m (of_lit f0) (of_lit f1)
      end
    done;
    of_lit l

let of_output m g po = lit_bdd m g (Aig.Network.po g po)

let check ?(node_limit = 2_000_000) ?step_limit ?cancel g =
  (* The default step budget scales with the node budget: a manager that
     stays within its node limit but keeps re-traversing it gets cut off
     after a generous multiple of the allocation bound. *)
  let step_limit =
    match step_limit with Some s -> s | None -> 64 * node_limit
  in
  if Par.Cancel.poll_opt cancel then `Timeout
  else
  let m = create ~node_limit ~step_limit ?cancel ~num_vars:(Aig.Network.num_pis g) () in
  let bdd_of = lit_bdd m g in
  try
    let rec go = function
      | [] -> `Equivalent
      | po :: rest -> (
          let b = bdd_of (Aig.Network.po g po) in
          match any_sat m b with
          | None -> go rest
          | Some cex -> `Inequivalent (cex, po))
    in
    go (Aig.Miter.unsolved_outputs g)
  with
  | Node_limit -> `Node_limit
  | Timeout -> `Timeout
