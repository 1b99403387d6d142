type t = {
  mutable data : Bytes.t;
  mutable off : int;  (* next free word *)
  mutable hwm : int;  (* high-water mark over the arena's lifetime, words *)
  mutable grows : int;
}

let create ~words =
  if words < 0 then invalid_arg "Arena.create: negative size";
  { data = Bytes.create (words * 8); off = 0; hwm = 0; grows = 0 }

let capacity_words t = Bytes.length t.data / 8

let ensure t words =
  if capacity_words t < words then begin
    (* Live slices would dangle into the old backing store; growing is
       only legal on an empty arena. *)
    if t.off > 0 then invalid_arg "Arena.ensure: arena has live allocations";
    t.data <- Bytes.create (words * 8);
    t.grows <- t.grows + 1
  end

let reset t = t.off <- 0

let alloc t words =
  if words < 0 then invalid_arg "Arena.alloc: negative size";
  if t.off + words > capacity_words t then
    invalid_arg "Arena.alloc: arena exhausted (missing ensure?)";
  let off = t.off in
  t.off <- off + words;
  if t.off > t.hwm then t.hwm <- t.off;
  off

let data t = t.data
let hwm_words t = t.hwm
let grows t = t.grows
