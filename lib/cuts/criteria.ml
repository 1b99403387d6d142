type pass = Fanout_first | Small_level_first | Large_level_first

let table1 = [ Fanout_first; Small_level_first; Large_level_first ]

(* The average [a / na] against [b / nb] (sizes are positive), compared
   exactly by cross-multiplying.  Two distinct averages over at most a
   few dozen leaves differ by far more than the rounding of their float
   quotients at these magnitudes, so this is also the order of
   [float a /. float na] and [float b /. float nb]. *)
let avg a na b nb = Int.compare (a * nb) (b * na)

(* The first non-zero criterion decides; size is always the first
   tie-breaker. *)
let chain main ~size ~size' tie =
  if main <> 0 then main else if size <> size' then Int.compare size size' else tie

let compare pass ~fanout ~size ~level ~fanout' ~size' ~level' =
  let high_fanout = avg fanout' size' fanout size in
  let small_level = avg level size level' size' in
  match pass with
  | Fanout_first -> chain high_fanout ~size ~size' small_level
  | Small_level_first -> chain small_level ~size ~size' high_fanout
  | Large_level_first -> chain (-small_level) ~size ~size' high_fanout
