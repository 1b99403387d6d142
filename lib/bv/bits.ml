type t = { len : int; data : Bytes.t }

let nwords_of_len len = (len + 63) lsr 6

(* Mask selecting the valid bits of the last word. *)
let tail_mask len =
  let r = len land 63 in
  if r = 0 then -1L else Int64.sub (Int64.shift_left 1L r) 1L

let length v = v.len
let num_words v = nwords_of_len v.len

let create ~len fill =
  if len < 0 then invalid_arg "Bits.create: negative length";
  let nw = nwords_of_len len in
  let data = Bytes.make (nw * 8) (if fill then '\xff' else '\x00') in
  let v = { len; data } in
  if fill && nw > 0 then begin
    let m = tail_mask len in
    Bytes.set_int64_ne data ((nw - 1) * 8) m
  end;
  v

let copy v = { len = v.len; data = Bytes.copy v.data }

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Bits.get: index out of range";
  let w = Bytes.get_int64_ne v.data ((i lsr 6) * 8) in
  Int64.logand (Int64.shift_right_logical w (i land 63)) 1L <> 0L

let set v i b =
  if i < 0 || i >= v.len then invalid_arg "Bits.set: index out of range";
  let off = (i lsr 6) * 8 in
  let w = Bytes.get_int64_ne v.data off in
  let m = Int64.shift_left 1L (i land 63) in
  let w' = if b then Int64.logor w m else Int64.logand w (Int64.lognot m) in
  Bytes.set_int64_ne v.data off w'

let get_word v w = Bytes.get_int64_ne v.data (w * 8)

let set_word v w x =
  let nw = num_words v in
  if w < 0 || w >= nw then invalid_arg "Bits.set_word: index out of range";
  let x = if w = nw - 1 then Int64.logand x (tail_mask v.len) else x in
  Bytes.set_int64_ne v.data (w * 8) x

let check_same_len a b name =
  if a.len <> b.len then invalid_arg (name ^ ": length mismatch")

let map2 name f a b =
  check_same_len a b name;
  let r = create ~len:a.len false in
  let nw = num_words a in
  for w = 0 to nw - 1 do
    let off = w * 8 in
    Bytes.set_int64_ne r.data off
      (f (Bytes.get_int64_ne a.data off) (Bytes.get_int64_ne b.data off))
  done;
  r

let band = map2 "Bits.band" Int64.logand
let bor = map2 "Bits.bor" Int64.logor
let bxor = map2 "Bits.bxor" Int64.logxor

let bnot a =
  let r = create ~len:a.len false in
  let nw = num_words a in
  for w = 0 to nw - 1 do
    let off = w * 8 in
    Bytes.set_int64_ne r.data off (Int64.lognot (Bytes.get_int64_ne a.data off))
  done;
  if nw > 0 then begin
    let off = (nw - 1) * 8 in
    Bytes.set_int64_ne r.data off
      (Int64.logand (Bytes.get_int64_ne r.data off) (tail_mask a.len))
  end;
  r

let and_maybe_not ~c0 a ~c1 b =
  check_same_len a b "Bits.and_maybe_not";
  let r = create ~len:a.len false in
  let nw = num_words a in
  let cm0 = if c0 then -1L else 0L and cm1 = if c1 then -1L else 0L in
  for w = 0 to nw - 1 do
    let off = w * 8 in
    let x = Int64.logxor (Bytes.get_int64_ne a.data off) cm0 in
    let y = Int64.logxor (Bytes.get_int64_ne b.data off) cm1 in
    Bytes.set_int64_ne r.data off (Int64.logand x y)
  done;
  if (c0 || c1) && nw > 0 then begin
    let off = (nw - 1) * 8 in
    Bytes.set_int64_ne r.data off
      (Int64.logand (Bytes.get_int64_ne r.data off) (tail_mask a.len))
  end;
  r

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let equal_mod_compl a b =
  check_same_len a b "Bits.equal_mod_compl";
  let nw = num_words a in
  if nw = 0 then `Equal
  else begin
    let rec scan w eq co =
      if (not eq) && not co then `Diff
      else if w = nw then if eq then `Equal else `Compl
      else
        let off = w * 8 in
        let x = Bytes.get_int64_ne a.data off
        and y = Bytes.get_int64_ne b.data off in
        let m = if w = nw - 1 then tail_mask a.len else -1L in
        let eq = eq && Int64.equal x y in
        let co = co && Int64.equal x (Int64.logand (Int64.lognot y) m) in
        scan (w + 1) eq co
    in
    scan 0 true true
  end

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let hash v = Hashtbl.hash (v.len, v.data)

let is_zero v =
  let nw = num_words v in
  let rec go w = w = nw || (Int64.equal (get_word v w) 0L && go (w + 1)) in
  go 0

let is_ones v =
  let nw = num_words v in
  if nw = 0 then true
  else
    let rec go w =
      if w = nw then true
      else
        let expect = if w = nw - 1 then tail_mask v.len else -1L in
        Int64.equal (get_word v w) expect && go (w + 1)
    in
    go 0

let popcount_word x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let popcount v =
  let nw = num_words v in
  let rec go w acc = if w = nw then acc else go (w + 1) (acc + popcount_word (get_word v w)) in
  go 0 0

(* De Bruijn sequence B(2,6): multiplying an isolated bit [1 << i] by the
   constant places a 6-bit window unique to [i] in the top bits.  The
   lookup table is derived from the constant at module init, so the two
   can never drift apart. *)
let ctz_debruijn = 0x03f79d71b4ca8b09L

let ctz_table =
  let t = Array.make 64 0 in
  for i = 0 to 63 do
    let idx =
      Int64.to_int
        (Int64.shift_right_logical
           (Int64.mul (Int64.shift_left 1L i) ctz_debruijn)
           58)
    in
    t.(idx) <- i
  done;
  t

let ctz64 x =
  if Int64.equal x 0L then 64
  else
    (* x land (-x) isolates the lowest set bit; the rest is branchless. *)
    let lsb = Int64.logand x (Int64.neg x) in
    ctz_table.(Int64.to_int (Int64.shift_right_logical (Int64.mul lsb ctz_debruijn) 58))

let first_diff a b =
  check_same_len a b "Bits.first_diff";
  let nw = num_words a in
  let rec go w =
    if w = nw then None
    else
      let x = Int64.logxor (get_word a w) (get_word b w) in
      if Int64.equal x 0L then go (w + 1) else Some ((w lsl 6) + ctz64 x)
  in
  go 0

let first_one v =
  let nw = num_words v in
  let rec go w =
    if w = nw then None
    else
      let x = get_word v w in
      if Int64.equal x 0L then go (w + 1) else Some ((w lsl 6) + ctz64 x)
  in
  go 0

let to_string v =
  String.init v.len (fun i -> if get v (v.len - 1 - i) then '1' else '0')

let of_string s =
  let len = String.length s in
  let v = create ~len false in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set v (len - 1 - i) true
      | _ -> invalid_arg "Bits.of_string: expected '0' or '1'")
    s;
  v

let pp fmt v = Format.pp_print_string fmt (to_string v)
