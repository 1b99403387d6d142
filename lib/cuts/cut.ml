type t = int array

let trivial n = [| n |]
let merge ~cap a b = Aig.Support.union_capped ~cap a b
let compare (a : t) b = Stdlib.compare a b
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

let inter_union_sizes a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j inter =
    if i = la || j = lb then (inter, la + lb - inter)
    else if a.(i) = b.(j) then go (i + 1) (j + 1) (inter + 1)
    else if a.(i) < b.(j) then go (i + 1) j inter
    else go i (j + 1) inter
  in
  go 0 0 0

let similarity c cuts =
  List.fold_left
    (fun acc c' ->
      let inter, union = inter_union_sizes c c' in
      acc +. (float_of_int inter /. float_of_int union))
    0. cuts

let check g ~root cut =
  Aig.Cone.extract g ~roots:[| root |] ~inputs:cut <> None
