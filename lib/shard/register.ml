let outcome_string = function
  | Simsweep.Engine.Proved -> "EQUIVALENT"
  | Simsweep.Engine.Disproved (cex, po) ->
      let bits =
        String.init (Array.length cex) (fun i -> if cex.(i) then '1' else '0')
      in
      Printf.sprintf "NOT EQUIVALENT (output %d, inputs %s)" po bits
  | Simsweep.Engine.Undecided -> "UNDECIDED"

let shell () =
  Shell.Command.register_engine "shard" (fun ?cancel ~arg g ->
      match
        match arg with
        | None -> Ok Check.default_config.Check.workers
        | Some a -> (
            match int_of_string_opt a with
            | Some n when n >= 1 -> Ok n
            | _ -> Error (Printf.sprintf "bad worker count %S" a))
      with
      | Error e -> Error e
      | Ok workers ->
          let config = { Check.default_config with Check.workers } in
          let outcome, st =
            Check.check ~config ?cancel ~pool:(Pool.default ()) g
          in
          Ok
            (Printf.sprintf
               "%s (%d shards, %d workers [%d warm, %d cold], %d steals)"
               (outcome_string outcome) st.Stats.shards st.Stats.workers
               st.Stats.warm_starts st.Stats.cold_starts
               (Array.fold_left ( + ) 0 (Stats.steals st))))
