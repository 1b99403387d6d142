type t = bool array

let of_window_pattern g ~inputs ~pattern =
  let cex = Array.make (Aig.Network.num_pis g) false in
  Array.iteri
    (fun k n ->
      if not (Aig.Network.is_pi g n) then
        invalid_arg "Cex.of_window_pattern: window input is not a PI";
      cex.(Aig.Network.pi_index g n) <- (pattern lsr k) land 1 = 1)
    inputs;
  cex

let distance_one ?(limit = max_int) cex =
  let n = min (Array.length cex) limit in
  List.init n (fun i ->
      let c = Array.copy cex in
      c.(i) <- not c.(i);
      c)

let eval_lit g cex l =
  let values = Array.make (Aig.Network.num_nodes g) false in
  Aig.Network.iter_nodes g (fun n ->
      if Aig.Network.is_pi g n then values.(n) <- cex.(Aig.Network.pi_index g n)
      else if Aig.Network.is_and g n then begin
        let f0 = Aig.Network.fanin0 g n and f1 = Aig.Network.fanin1 g n in
        let v0 = values.(Aig.Lit.node f0) <> Aig.Lit.is_compl f0 in
        let v1 = values.(Aig.Lit.node f1) <> Aig.Lit.is_compl f1 in
        values.(n) <- v0 && v1
      end);
  values.(Aig.Lit.node l) <> Aig.Lit.is_compl l

let check g cex po = eval_lit g cex (Aig.Network.po g po)
