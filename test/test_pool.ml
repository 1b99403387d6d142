(* Domain pool: the GPU stand-in must produce exactly the same results as
   a sequential loop, propagate exceptions, and survive reuse. *)

let with_pool n f =
  let pool = Par.Pool.create ~num_domains:n () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let test_parallel_sum () =
  with_pool 4 (fun pool ->
      let n = 10_000 in
      let out = Array.make n 0 in
      Par.Pool.parallel_for pool ~start:0 ~stop:n (fun i -> out.(i) <- i * i);
      let expect = Array.init n (fun i -> i * i) in
      Alcotest.(check bool) "all cells written" true (out = expect))

let test_empty_range () =
  with_pool 2 (fun pool ->
      let hit = ref false in
      Par.Pool.parallel_for pool ~start:5 ~stop:5 (fun _ -> hit := true);
      Par.Pool.parallel_for pool ~start:9 ~stop:3 (fun _ -> hit := true);
      Alcotest.(check bool) "body never runs" false !hit)

let test_sequential_pool () =
  with_pool 1 (fun pool ->
      Alcotest.(check int) "workers" 1 (Par.Pool.num_workers pool);
      let acc = ref 0 in
      Par.Pool.parallel_for pool ~start:0 ~stop:100 (fun i -> acc := !acc + i);
      Alcotest.(check int) "sum" 4950 !acc)

let test_exception () =
  with_pool 4 (fun pool ->
      let raised =
        try
          Par.Pool.parallel_for pool ~start:0 ~stop:1000 (fun i ->
              if i = 321 then failwith "boom");
          false
        with Failure m -> m = "boom"
      in
      Alcotest.(check bool) "exception propagates" true raised;
      (* The pool must remain usable after a failed loop. *)
      let acc = Atomic.make 0 in
      Par.Pool.parallel_for pool ~start:0 ~stop:100 (fun _ ->
          ignore (Atomic.fetch_and_add acc 1));
      Alcotest.(check int) "pool survives" 100 (Atomic.get acc))

let test_reuse_many () =
  with_pool 4 (fun pool ->
      for round = 1 to 50 do
        let acc = Atomic.make 0 in
        Par.Pool.parallel_for pool ~start:0 ~stop:round (fun i ->
            ignore (Atomic.fetch_and_add acc i));
        Alcotest.(check int) "triangular" (round * (round - 1) / 2) (Atomic.get acc)
      done)

let test_nested () =
  (* Nested parallel_for must degrade to sequential, not deadlock. *)
  with_pool 4 (fun pool ->
      let acc = Atomic.make 0 in
      Par.Pool.parallel_for pool ~start:0 ~stop:8 (fun _ ->
          Par.Pool.parallel_for pool ~start:0 ~stop:8 (fun _ ->
              ignore (Atomic.fetch_and_add acc 1)));
      Alcotest.(check int) "64 iterations" 64 (Atomic.get acc))

let test_shutdown_idempotent () =
  let pool = Par.Pool.create ~num_domains:3 () in
  Par.Pool.parallel_for pool ~start:0 ~stop:10 (fun _ -> ());
  Par.Pool.shutdown pool;
  (* A second shutdown (e.g. an at_exit hook after an explicit one) must be
     a no-op, not a hang on already-joined domains. *)
  Par.Pool.shutdown pool;
  Alcotest.(check pass) "second shutdown returns" () ()

let test_region_equivalence () =
  (* parallel_region is a scheduling hint only: results inside a region must
     be identical to the same loops outside one. *)
  with_pool 4 (fun pool ->
      let n = 5_000 in
      let inside = Array.make n 0 and outside = Array.make n 0 in
      Par.Pool.parallel_region pool (fun () ->
          for _ = 1 to 5 do
            Par.Pool.parallel_for pool ~start:0 ~stop:n (fun i ->
                inside.(i) <- inside.(i) + (i * 3))
          done);
      for _ = 1 to 5 do
        Par.Pool.parallel_for pool ~start:0 ~stop:n (fun i ->
            outside.(i) <- outside.(i) + (i * 3))
      done;
      Alcotest.(check bool) "same results" true (inside = outside);
      let s = Par.Pool.stats pool in
      Alcotest.(check int) "one region" 1 s.Par.Pool.regions;
      Alcotest.(check int) "five region jobs" 5 s.Par.Pool.region_jobs)

let test_region_nested_sequential () =
  (* A region opened from inside a worker body (or inside another region)
     must not try to re-enter the scheduler: loops under it still run, and
     nesting falls back to plain sequential execution. *)
  with_pool 4 (fun pool ->
      let acc = Atomic.make 0 in
      Par.Pool.parallel_region pool (fun () ->
          Par.Pool.parallel_region pool (fun () ->
              Par.Pool.parallel_for pool ~start:0 ~stop:64 (fun _ ->
                  ignore (Atomic.fetch_and_add acc 1))));
      Alcotest.(check int) "inner loop ran" 64 (Atomic.get acc);
      let s = Par.Pool.stats pool in
      Alcotest.(check int) "inner region not counted" 1 s.Par.Pool.regions;
      (* From a worker body: the region must no-op and the loop must run
         sequentially in that worker. *)
      let acc2 = Atomic.make 0 in
      Par.Pool.parallel_for pool ~start:0 ~stop:4 (fun _ ->
          Par.Pool.parallel_region pool (fun () ->
              Par.Pool.parallel_for pool ~start:0 ~stop:16 (fun _ ->
                  ignore (Atomic.fetch_and_add acc2 1))));
      Alcotest.(check int) "worker-body region sequential" 64 (Atomic.get acc2);
      Alcotest.(check int) "still one region" 1 (Par.Pool.stats pool).Par.Pool.regions)

let test_region_exception () =
  (* An exception inside a region must close it (region state restored). *)
  with_pool 2 (fun pool ->
      (try Par.Pool.parallel_region pool (fun () -> failwith "boom")
       with Failure _ -> ());
      (* If the region leaked, this second region would be treated as nested
         and not counted. *)
      Par.Pool.parallel_region pool (fun () ->
          Par.Pool.parallel_for pool ~start:0 ~stop:8 (fun _ -> ()));
      Alcotest.(check int) "both regions counted" 2
        (Par.Pool.stats pool).Par.Pool.regions)

let test_job_released_after_barrier () =
  (* Regression: parallel_for must drop its job record at barrier exit, or
     the last loop body's closure (and everything it captures) stays
     reachable from the pool until the next dispatch. *)
  with_pool 2 (fun pool ->
      let weak = Weak.create 1 in
      (* The body closure captures the payload directly: if the pool keeps
         the job record alive, the payload cannot be collected. *)
      (let payload = Bytes.create (1 lsl 16) in
       Weak.set weak 0 (Some payload);
       Par.Pool.parallel_for pool ~start:0 ~stop:100 (fun _ ->
           ignore (Sys.opaque_identity (Bytes.length payload))));
      Gc.full_major ();
      Gc.full_major ();
      Alcotest.(check bool) "captured payload collected" false
        (Weak.check weak 0))

let test_steal_counts_consistent () =
  (* Steals are a subset of chunk claims, and claims cover the whole range. *)
  with_pool 4 (fun pool ->
      (* Uneven bodies to provoke stealing. *)
      Par.Pool.parallel_for pool ~chunk:1 ~start:0 ~stop:64 (fun i ->
          if i < 4 then begin
            let t = Unix.gettimeofday () in
            while Unix.gettimeofday () -. t < 0.01 do
              ignore (Sys.opaque_identity i)
            done
          end);
      let s = Par.Pool.stats pool in
      let claims = Array.fold_left ( + ) 0 s.Par.Pool.chunks_per_worker in
      let steals = Array.fold_left ( + ) 0 s.Par.Pool.steals in
      (* chunk=1 over [0,64): every index is its own claim. *)
      Alcotest.(check int) "claims cover range" 64 claims;
      Alcotest.(check bool) "steals <= claims" true (steals <= claims);
      Array.iteri
        (fun w st ->
          Alcotest.(check bool)
            (Printf.sprintf "worker %d steals <= claims" w)
            true
            (st <= s.Par.Pool.chunks_per_worker.(w)))
        s.Par.Pool.steals)

let prop_matches_sequential =
  QCheck.Test.make ~name:"parallel_for equals sequential map" ~count:30
    QCheck.(pair (int_range 0 500) (int_range 1 64))
    (fun (n, chunk) ->
      with_pool 3 (fun pool ->
          let a = Array.make (max n 1) 0 in
          Par.Pool.parallel_for pool ~chunk ~start:0 ~stop:n (fun i ->
              a.(i) <- (i * 17) lxor 5);
          let ok = ref true in
          for i = 0 to n - 1 do
            if a.(i) <> (i * 17) lxor 5 then ok := false
          done;
          !ok))

let () =
  Alcotest.run "pool"
    [
      ( "unit",
        [
          Alcotest.test_case "parallel sum" `Quick test_parallel_sum;
          Alcotest.test_case "empty range" `Quick test_empty_range;
          Alcotest.test_case "sequential pool" `Quick test_sequential_pool;
          Alcotest.test_case "exception" `Quick test_exception;
          Alcotest.test_case "reuse" `Quick test_reuse_many;
          Alcotest.test_case "nested" `Quick test_nested;
          Alcotest.test_case "region equivalence" `Quick test_region_equivalence;
          Alcotest.test_case "region nested sequential" `Quick
            test_region_nested_sequential;
          Alcotest.test_case "region exception" `Quick test_region_exception;
          Alcotest.test_case "job released after barrier" `Quick
            test_job_released_after_barrier;
          Alcotest.test_case "steal counts" `Quick test_steal_counts_consistent;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_matches_sequential ]);
    ]
