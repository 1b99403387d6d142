type t = { classes : (int * bool) array list }

type pair = { repr : int; other : int; compl_ : bool }

(* Normalise a member list into a class array: sort by id, representative
   first, phases re-expressed relative to the representative. *)
let normalize members =
  match members with
  | [] | [ _ ] -> None
  | _ ->
      let arr = Array.of_list members in
      Array.sort (fun (a, _) (b, _) -> compare a b) arr;
      let _, repr_phase = arr.(0) in
      Some (Array.map (fun (n, ph) -> (n, ph <> repr_phase)) arr)

let of_sigs g sigs ?(include_pis = false) () =
  let groups : (string, (int * bool) list ref) Hashtbl.t = Hashtbl.create 1024 in
  let add n =
    let key = Psim.class_key sigs n in
    let ph = Psim.phase sigs n in
    match Hashtbl.find_opt groups key with
    | Some l -> l := (n, ph) :: !l
    | None -> Hashtbl.replace groups key (ref [ (n, ph) ])
  in
  add 0;
  Aig.Network.iter_nodes g (fun n ->
      if Aig.Network.is_and g n then add n
      else if include_pis && Aig.Network.is_pi g n then add n);
  let classes =
    Hashtbl.fold
      (fun _ members acc ->
        match normalize !members with Some c -> c :: acc | None -> acc)
      groups []
  in
  (* Deterministic order regardless of hash iteration. *)
  let classes = List.sort (fun a b -> compare (fst a.(0)) (fst b.(0))) classes in
  { classes }

let num_nodes t = List.fold_left (fun acc c -> acc + Array.length c) 0 t.classes
let classes t = t.classes

let pairs t =
  List.concat_map
    (fun c ->
      let repr, _ = c.(0) in
      List.init
        (Array.length c - 1)
        (fun i ->
          let n, ph = c.(i + 1) in
          { repr; other = n; compl_ = ph }))
    t.classes

let refine t sigs =
  let classes =
    List.concat_map
      (fun c ->
        let groups : (string, (int * bool) list ref) Hashtbl.t = Hashtbl.create 8 in
        Array.iter
          (fun (n, _) ->
            let key = Psim.class_key sigs n in
            let ph = Psim.phase sigs n in
            match Hashtbl.find_opt groups key with
            | Some l -> l := (n, ph) :: !l
            | None -> Hashtbl.replace groups key (ref [ (n, ph) ]))
          c;
        let split =
          Hashtbl.fold
            (fun _ members acc ->
              match normalize !members with Some c -> c :: acc | None -> acc)
            groups []
        in
        List.sort (fun a b -> compare (fst a.(0)) (fst b.(0))) split)
      t.classes
  in
  { classes }

let remove t dropped =
  let classes =
    List.filter_map
      (fun c ->
        let kept =
          Array.to_list c |> List.filter (fun (n, _) -> not (Hashtbl.mem dropped n))
        in
        normalize kept)
      t.classes
  in
  { classes }

let map_nodes t f =
  let classes =
    List.filter_map
      (fun c ->
        let seen = Hashtbl.create 8 in
        let mapped =
          Array.to_list c
          |> List.filter_map (fun (n, ph) ->
                 match f n with
                 | None -> None
                 | Some l ->
                     let id = Aig.Lit.node l in
                     if Hashtbl.mem seen id then None
                     else begin
                       Hashtbl.replace seen id ();
                       Some (id, ph <> Aig.Lit.is_compl l)
                     end)
        in
        normalize mapped)
      t.classes
  in
  { classes }
