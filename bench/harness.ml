(* Shared measurement helpers for the bench harness. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      let logs = List.fold_left (fun acc x -> acc +. Float.log x) 0. xs in
      Float.exp (logs /. float_of_int (List.length xs))

(* Deterministic CPU calibration kernel (SplitMix64): the perf gate
   normalizes case timings by this, so its regression threshold compares
   work, not machines. *)
let calibrate () =
  let golden = 0x9E3779B97F4A7C15L in
  let s = ref golden in
  let acc = ref 0L in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 200_000_000 do
    s := Int64.add !s golden;
    let z = !s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    acc := Int64.add !acc (Int64.logxor z (Int64.shift_right_logical z 31))
  done;
  let t = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !acc);
  t

(* The combined "ours" flow of Table II: engine first, SAT sweeper on the
   remainder; returns per-column data. *)
type ours = {
  gpu_time : float;  (** simulation-engine time (the paper's "GPU (s)") *)
  reduced_percent : float;
  sat_time : float option;  (** fallback SAT time, [None] when not needed *)
  total : float;
  outcome : Simsweep.Engine.outcome;
  engine_stats : Simsweep.Stats.t;  (** telemetry of the engine run *)
}

let run_ours ~pool miter =
  let r, gpu_time =
    time (fun () ->
        Simsweep.Engine.run ~config:Simsweep.Config.scaled ~pool
          (Aig.Network.copy miter))
  in
  match r.Simsweep.Engine.outcome with
  | Simsweep.Engine.Proved | Simsweep.Engine.Disproved _ ->
      {
        gpu_time;
        reduced_percent = Simsweep.Engine.reduction_percent r;
        sat_time = None;
        total = gpu_time;
        outcome = r.Simsweep.Engine.outcome;
        engine_stats = r.Simsweep.Engine.stats;
      }
  | Simsweep.Engine.Undecided ->
      let (sat_outcome, _), sat_time =
        time (fun () -> Sat.Sweep.check ~pool r.Simsweep.Engine.reduced)
      in
      let outcome =
        match sat_outcome with
        | Sat.Sweep.Equivalent -> Simsweep.Engine.Proved
        | Sat.Sweep.Inequivalent (cex, po) -> Simsweep.Engine.Disproved (cex, po)
        | Sat.Sweep.Undecided -> Simsweep.Engine.Undecided
      in
      {
        gpu_time;
        reduced_percent = Simsweep.Engine.reduction_percent r;
        sat_time = Some sat_time;
        total = gpu_time +. sat_time;
        outcome;
        engine_stats = r.Simsweep.Engine.stats;
      }

let run_sat_baseline ~pool miter =
  time (fun () -> fst (Sat.Sweep.check ~pool (Aig.Network.copy miter)))

let run_portfolio ~pool miter =
  time (fun () -> Simsweep.Portfolio.check ~pool (Aig.Network.copy miter))
