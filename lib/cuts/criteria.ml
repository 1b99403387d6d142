type pass = Fanout_first | Small_level_first | Large_level_first

let table1 = [ Fanout_first; Small_level_first; Large_level_first ]

type metrics = { fanout : float; size : int; level : float }

let metrics ~fanouts ~levels cut =
  let n = Array.length cut in
  let fo = ref 0 and lv = ref 0 in
  for i = 0 to n - 1 do
    fo := !fo + fanouts.(cut.(i));
    lv := !lv + levels.(cut.(i))
  done;
  {
    fanout = float_of_int !fo /. float_of_int n;
    size = n;
    level = float_of_int !lv /. float_of_int n;
  }

(* Chained comparison: the first non-zero criterion decides. *)
let chain c1 c2 c3 a b =
  let r = c1 a b in
  if r <> 0 then r
  else
    let r = c2 a b in
    if r <> 0 then r else c3 a b

let high_fanout a b = compare b.fanout a.fanout
let small_size a b = compare a.size b.size
let small_level a b = compare a.level b.level
let large_level a b = compare b.level a.level

let compare_metrics = function
  | Fanout_first -> chain high_fanout small_size small_level
  | Small_level_first -> chain small_level small_size high_fanout
  | Large_level_first -> chain large_level small_size high_fanout
