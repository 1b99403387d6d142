type sigs = { nwords : int; num_nodes : int; data : Bytes.t }

type stats = {
  mutable runs : int;
  mutable level_batches : int;
  mutable node_words : int;
  mutable patterns_embedded : int;
}

let new_stats () =
  { runs = 0; level_batches = 0; node_words = 0; patterns_embedded = 0 }

let nwords s = s.nwords

let row_off s n = n * s.nwords * 8

let word s n w = Bytes.get_int64_ne s.data (row_off s n + (w * 8))

let set_word s n w x = Bytes.set_int64_ne s.data (row_off s n + (w * 8)) x

let value s n p =
  let w = p lsr 6 in
  Int64.logand (Int64.shift_right_logical (word s n w) (p land 63)) 1L <> 0L

let run ?stats g ~nwords ~rng ~pool ~embed =
  if nwords <= 0 then invalid_arg "Psim.run: nwords must be positive";
  let num_nodes = Aig.Network.num_nodes g in
  let s = { nwords; num_nodes; data = Bytes.make (num_nodes * nwords * 8) '\x00' } in
  (* Constant node: all zero (already).  PIs: random patterns. *)
  for i = 0 to Aig.Network.num_pis g - 1 do
    let n = Aig.Network.pi g i in
    for w = 0 to nwords - 1 do
      set_word s n w (Rng.next64 rng)
    done
  done;
  (* Embed specific assignments into the lowest pattern slots. *)
  List.iteri
    (fun p assignment ->
      if p < 64 * nwords then
        Array.iteri
          (fun i v ->
            let n = Aig.Network.pi g i in
            let w = p lsr 6 and b = p land 63 in
            let x = word s n w in
            let m = Int64.shift_left 1L b in
            set_word s n w
              (if v then Int64.logor x m else Int64.logand x (Int64.lognot m)))
          assignment)
    embed;
  (* Level-wise parallel evaluation. *)
  let batches = Aig.Network.level_batches g in
  (match stats with
  | Some st ->
      st.runs <- st.runs + 1;
      st.level_batches <- st.level_batches + Array.length batches;
      st.node_words <-
        st.node_words
        + (nwords * Array.fold_left (fun acc b -> acc + Array.length b) 0 batches);
      st.patterns_embedded <-
        st.patterns_embedded + min (List.length embed) (64 * nwords)
  | None -> ());
  Array.iter
    (fun batch ->
      Par.Pool.parallel_for pool ~start:0 ~stop:(Array.length batch) (fun k ->
          let n = batch.(k) in
          let f0 = Aig.Network.fanin0 g n and f1 = Aig.Network.fanin1 g n in
          let n0 = Aig.Lit.node f0 and n1 = Aig.Lit.node f1 in
          let c0 = if Aig.Lit.is_compl f0 then -1L else 0L in
          let c1 = if Aig.Lit.is_compl f1 then -1L else 0L in
          for w = 0 to nwords - 1 do
            set_word s n w
              (Int64.logand
                 (Int64.logxor (word s n0 w) c0)
                 (Int64.logxor (word s n1 w) c1))
          done))
    batches;
  s

let phase s n = Int64.logand (word s n 0) 1L <> 0L

let class_key s n =
  let buf = Bytes.create (s.nwords * 8) in
  let flip = phase s n in
  for w = 0 to s.nwords - 1 do
    let x = word s n w in
    Bytes.set_int64_ne buf (w * 8) (if flip then Int64.lognot x else x)
  done;
  Bytes.unsafe_to_string buf
