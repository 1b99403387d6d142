let union_capped ~cap a b =
  let la = Array.length a and lb = Array.length b in
  (* Count the union first, so an over-cap union allocates nothing and a
     fitting one allocates its exact-size result only.  Loops, not local
     recursive functions, which would allocate closures. *)
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !k <= cap && !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x <= y then incr i;
    if y <= x then incr j;
    incr k
  done;
  let n = !k + (la - !i) + (lb - !j) in
  if n > cap then None
  else begin
    let buf = Array.make n 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      buf.(!k) <- (if x <= y then x else y);
      if x <= y then incr i;
      if y <= x then incr j;
      incr k
    done;
    Array.blit a !i buf !k (la - !i);
    Array.blit b !j buf !k (lb - !j);
    Some buf
  end

let capped g ~cap =
  let n = Network.num_nodes g in
  let supports = Array.make n None in
  supports.(0) <- Some [||];
  Network.iter_nodes g (fun id ->
      if Network.is_pi g id then supports.(id) <- Some [| id |]
      else if Network.is_and g id then begin
        let s0 = supports.(Lit.node (Network.fanin0 g id)) in
        let s1 = supports.(Lit.node (Network.fanin1 g id)) in
        supports.(id) <-
          (match (s0, s1) with
          | Some a, Some b -> union_capped ~cap a b
          | _ -> None)
      end);
  supports

let size_capped g ~cap =
  let supports = capped g ~cap in
  Array.map (function Some a -> Array.length a | None -> -1) supports

let exact g root =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec dfs n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      if Network.is_pi g n then acc := n :: !acc
      else if Network.is_and g n then begin
        dfs (Lit.node (Network.fanin0 g n));
        dfs (Lit.node (Network.fanin1 g n))
      end
    end
  in
  dfs root;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a
