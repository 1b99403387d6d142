type t = int array

let trivial n = [| n |]
let merge ~cap a b = Aig.Support.union_capped ~cap a b

let signature cut =
  let s = ref 0 in
  for i = 0 to Array.length cut - 1 do
    s := !s lor (1 lsl (cut.(i) mod 62))
  done;
  !s

(* Set bits of [s], counted only up to [cap + 1]. *)
let sig_exceeds ~cap s =
  let s = ref s and n = ref 0 in
  while !s <> 0 && !n <= cap do
    s := !s land (!s - 1);
    incr n
  done;
  !n > cap

(* The hot loops below are [while] loops: a local recursive function would
   allocate a closure on every call. *)
let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let i = ref 0 in
    while !i < la && a.(!i) = b.(!i) do
      incr i
    done;
    if !i = la then 0 else Int.compare a.(!i) b.(!i)
  end

let size = Array.length

let subset a b =
  let lb = Array.length b in
  let rec go i j =
    if i = Array.length a then true
    else if j = lb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

let inter_size a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and inter = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      incr i;
      incr j;
      incr inter
    end
    else if x < y then incr i
    else incr j
  done;
  !inter

(* Summed left to right, as a fold over [cuts] would. *)
let similarity c cuts =
  let acc = ref 0. and rest = ref cuts in
  while
    match !rest with
    | [] -> false
    | c' :: tl ->
        let inter = inter_size c c' in
        let union = Array.length c + Array.length c' - inter in
        acc := !acc +. (float_of_int inter /. float_of_int union);
        rest := tl;
        true
  do
    ()
  done;
  !acc

let check g ~root cut =
  Aig.Cone.extract g ~roots:[| root |] ~inputs:cut <> None
