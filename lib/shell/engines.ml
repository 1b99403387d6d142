module E = Simsweep.Engine
module T = Simsweep.Telemetry

type t =
  | Sim
  | Combined
  | Sat
  | Sat_direct
  | Bdd
  | Portfolio
  | Partitioned
  | Shard of int

let default_workers = Shard.Check.default_config.Shard.Check.workers

let all =
  [
    Sim; Combined; Sat; Sat_direct; Bdd; Portfolio; Partitioned;
    Shard default_workers;
  ]

let to_string = function
  | Sim -> "sim"
  | Combined -> "combined"
  | Sat -> "sat"
  | Sat_direct -> "satdirect"
  | Bdd -> "bdd"
  | Portfolio -> "portfolio"
  | Partitioned -> "partitioned"
  | Shard n -> Printf.sprintf "shard.%d" n

let of_string s =
  match List.find_opt (fun e -> to_string e = s) all with
  | Some e -> Ok e
  | None -> (
      match String.split_on_char '.' s with
      | [ "shard" ] -> Ok (Shard default_workers)
      | [ "shard"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 1 -> Ok (Shard n)
          | _ -> Error (Printf.sprintf "bad worker count %S" n))
      | _ -> Error ("unknown engine " ^ s))

let outcome_string = function
  | E.Proved -> "EQUIVALENT"
  | E.Disproved (cex, po) ->
      let bits =
        String.init (Array.length cex) (fun i -> if cex.(i) then '1' else '0')
      in
      Printf.sprintf "NOT EQUIVALENT (output %d, inputs %s)" po bits
  | E.Undecided -> "UNDECIDED"

type report = {
  outcome : E.outcome;
  summary : string;
  stats : (string * T.json) list;
}

let run ?cancel ~pool engine g =
  let report ?(stats = []) ?(detail = "") outcome =
    Ok { outcome; summary = outcome_string outcome ^ detail; stats }
  in
  match engine with
  | Sim ->
      let r = E.run ~config:Simsweep.Config.scaled ?cancel ~pool g in
      report ~stats:[ ("run", T.of_run r) ] r.E.outcome
        ~detail:(Printf.sprintf " (reduced %.1f%%)" (E.reduction_percent r))
  | Combined ->
      let c = Shard.Worker.check ?cancel ~pool g in
      report ~stats:[ ("combined", T.of_combined c) ] c.E.final
  | Sat ->
      let o, s = Sat.Sweep.check ?cancel ~pool g in
      let detail =
        match o with
        | Sat.Sweep.Equivalent ->
            Printf.sprintf " (%d SAT calls)" s.Sat.Sweep.sat_calls
        | _ -> ""
      in
      report ~stats:[ ("sat", T.of_sat s) ] ~detail (E.of_sat_outcome o)
  | Sat_direct -> report (E.of_sat_outcome (Sat.Sweep.check_direct ?cancel g))
  | Bdd -> (
      match Bdd.check ?cancel g with
      | `Equivalent -> report E.Proved
      | `Inequivalent (cex, po) -> report (E.Disproved (cex, po))
      | `Node_limit -> report E.Undecided ~detail:" (BDD node limit)"
      | `Timeout -> report E.Undecided ~detail:" (BDD step budget)")
  | Portfolio ->
      let r = Simsweep.Portfolio.check ?cancel ~pool g in
      report ~stats:[ ("portfolio", T.of_portfolio r) ]
        r.Simsweep.Portfolio.outcome
        ~detail:
          (Printf.sprintf " (winner: %s)"
             (match r.Simsweep.Portfolio.winner with
             | Some e -> Simsweep.Portfolio.engine_name e
             | None -> "none"))
  | Partitioned ->
      (* Shards of up to the coordinator's cap (they run one after another
         here, so no per-worker target), checked with the workers' flow in
         plan order; the first shard not proved settles the miter. *)
      let { Shard.Plan.shards; groups; early; _ } =
        Shard.Plan.build ~max_ands:Shard.Check.default_config.max_shard_ands g
      in
      let rec solve = function
        | [] -> E.Proved
        | sh :: rest -> (
            match (Shard.Worker.check ?cancel ~pool sh.Shard.Plan.sub).E.final with
            | E.Proved -> solve rest
            | E.Disproved (cex, po) ->
                Shard.Plan.lift ~num_pis:(Aig.Network.num_pis g) sh cex po
            | E.Undecided -> E.Undecided)
      in
      report ~stats:[ ("partition_groups", T.Int groups) ]
        (match early with Some verdict -> verdict | None -> solve shards)
        ~detail:(Printf.sprintf " (%d groups)" groups)
  | Shard workers ->
      let config =
        {
          Shard.Check.default_config with
          Shard.Check.workers;
          worker_domains = max 1 (Par.Pool.num_workers pool / workers);
        }
      in
      if not (Shard.Worker.hosts_workers ()) then
        Error "shard: this program cannot host shard worker processes"
      else
        let outcome, st = Shard.Check.check ~config ?cancel g in
        report ~stats:[ ("shard", Shard.Stats.to_json st) ] outcome
          ~detail:
            (Printf.sprintf " (%d shards, %d workers, %d steals)"
               st.Shard.Stats.shards st.Shard.Stats.workers
               (Array.fold_left ( + ) 0 (Shard.Stats.steals st)))
