(* The domain pool: canonical-order aggregation, bit-identical output
   for any worker count, per-task failure capture that neither hangs
   nor poisons the pool. *)

let work i =
  (* Deterministic per-task computation of varying cost, driven by the
     task's own derived RNG stream. *)
  let rng = Sim.Rng.of_seed (Sim.Rng.derive_seed ~root:42 ~stream:i) in
  let steps = 1_000 + (i * 317 mod 700) in
  let acc = ref 0. in
  for _ = 1 to steps do
    acc := !acc +. Sim.Rng.float rng
  done;
  Printf.sprintf "%d:%.12f" i !acc

let aggregate jobs =
  Engine.Pool.with_pool ~jobs (fun pool ->
      Engine.Pool.map pool
        ~label:(fun i -> Printf.sprintf "task-%d" i)
        ~f:work (List.init 16 Fun.id)
      |> String.concat "|")

let test_identical_across_worker_counts () =
  let one = aggregate 1 in
  Alcotest.(check string) "1 vs 2 domains" one (aggregate 2);
  Alcotest.(check string) "1 vs 4 domains" one (aggregate 4)

let test_canonical_order () =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      let out =
        Engine.Pool.map pool ~label:string_of_int
          ~f:(fun i ->
            (* Earlier tasks spin longer, so with four workers the later
               tasks finish first; results must still come back in
               submission order. *)
            let spin = (16 - i) * 20_000 in
            let acc = ref 0 in
            for k = 1 to spin do
              acc := !acc + k
            done;
            ignore !acc;
            i)
          (List.init 16 Fun.id)
      in
      Alcotest.(check (list int)) "submission order" (List.init 16 Fun.id)
        out)

let test_failure_reported_with_label () =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      (try
         ignore
           (Engine.Pool.map pool
              ~label:(fun i -> Printf.sprintf "cell-%d" i)
              ~f:(fun i -> if i = 5 then failwith "boom" else i)
              (List.init 8 Fun.id));
         Alcotest.fail "expected Task_failed"
       with Engine.Pool.Task_failed { label; exn; _ } ->
         Alcotest.(check string) "scenario label" "cell-5" label;
         Alcotest.(check bool) "original exception preserved" true
           (match exn with Failure m -> String.equal m "boom" | _ -> false));
      (* The failed batch completed and the pool is still usable. *)
      let again =
        Engine.Pool.map pool ~label:string_of_int
          ~f:(fun i -> i + 1)
          (List.init 8 Fun.id)
      in
      Alcotest.(check (list int)) "pool survives a failed batch"
        [ 1; 2; 3; 4; 5; 6; 7; 8 ] again)

let test_first_failure_in_canonical_order () =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      try
        ignore
          (Engine.Pool.map pool
             ~label:(fun i -> Printf.sprintf "cell-%d" i)
             ~f:(fun i -> if i mod 3 = 2 then failwith "x" else i)
             (List.init 9 Fun.id));
        Alcotest.fail "expected Task_failed"
      with Engine.Pool.Task_failed { label; _ } ->
        Alcotest.(check string) "lowest failing index wins" "cell-2" label)

let test_sequential_degradation () =
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int)) "empty batch" []
        (Engine.Pool.map pool ~label:string_of_int ~f:Fun.id []);
      try
        ignore
          (Engine.Pool.map pool
             ~label:(fun _ -> "solo")
             ~f:(fun () -> failwith "seq")
             [ () ]);
        Alcotest.fail "expected Task_failed"
      with Engine.Pool.Task_failed { label; _ } ->
        Alcotest.(check string) "sequential failure labelled" "solo" label)

let test_poisoned_cell_leaves_survivors_identical () =
  (* The chaos-sweep pattern: tasks wrap their own failures into result
     rows instead of raising, so one poisoned cell costs exactly its own
     row and the surviving rows match the sequential run byte for byte. *)
  let captured i =
    try if i = 5 then failwith "poisoned cell" else work i
    with Failure m -> Printf.sprintf "%d:FAILED(%s)" i m
  in
  let rows jobs =
    Engine.Pool.with_pool ~jobs (fun pool ->
        Engine.Pool.map pool
          ~label:(fun i -> Printf.sprintf "cell-%d" i)
          ~f:captured (List.init 12 Fun.id))
  in
  let sequential = rows 1 in
  Alcotest.(check string) "poisoned row carries its own error"
    "5:FAILED(poisoned cell)" (List.nth sequential 5);
  Alcotest.(check int) "batch drained" 12 (List.length sequential);
  Alcotest.(check (list string)) "survivors identical at --jobs 4"
    sequential (rows 4)

let test_create_rejects_zero_jobs () =
  Alcotest.(check bool) "invalid_arg on jobs=0" true
    (try
       ignore (Engine.Pool.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true)

let test_map_collect_verdicts () =
  (* Every cell reports: Ok rows in order, each failing cell its own
     labeled Error, identical shape at any worker count. *)
  let shape jobs =
    Engine.Pool.with_pool ~jobs (fun pool ->
        Engine.Pool.map_collect pool
          ~label:(fun i -> Printf.sprintf "cell-%d" i)
          ~f:(fun i -> if i mod 4 = 1 then failwith "bad" else i * 10)
          (List.init 10 Fun.id))
    |> List.map (function
         | Ok v -> Printf.sprintf "ok:%d" v
         | Error { Engine.Pool.flabel; fexn; _ } ->
             Printf.sprintf "err:%s:%s" flabel
               (match fexn with Failure m -> m | _ -> "?"))
  in
  let expected =
    List.init 10 (fun i ->
        if i mod 4 = 1 then Printf.sprintf "err:cell-%d:bad" i
        else Printf.sprintf "ok:%d" (i * 10))
  in
  Alcotest.(check (list string)) "jobs=1 verdicts" expected (shape 1);
  Alcotest.(check (list string)) "jobs=4 verdicts" expected (shape 4)

let test_map_collect_all_ok_and_all_fail () =
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check int) "all-ok has no errors" 0
        (Engine.Pool.map_collect pool ~label:string_of_int ~f:Fun.id
           (List.init 6 Fun.id)
        |> List.filter Result.is_error |> List.length);
      Alcotest.(check int) "all-fail drains the batch" 6
        (Engine.Pool.map_collect pool ~label:string_of_int
           ~f:(fun _ -> failwith "all")
           (List.init 6 Fun.id)
        |> List.filter Result.is_error |> List.length);
      (* and the pool is still healthy afterwards *)
      Alcotest.(check (list int)) "pool survives" [ 0; 1; 2 ]
        (Engine.Pool.map pool ~label:string_of_int ~f:Fun.id [ 0; 1; 2 ]))

(* [iter] runs every index once, re-raises the lowest raising index's
   own exception (not Task_failed) at any pool size, and leaves the pool
   usable. *)
let test_iter_lowest_exception () =
  List.iter
    (fun jobs ->
      Engine.Pool.with_pool ~jobs (fun pool ->
          let hits = Array.make 12 0 in
          Engine.Pool.iter pool 12 (fun i -> hits.(i) <- hits.(i) + 1);
          Alcotest.(check (array int))
            (Printf.sprintf "jobs %d: each index once" jobs)
            (Array.make 12 1) hits;
          (match
             Engine.Pool.iter pool 12 (fun i ->
                 if i >= 4 && i mod 4 = 0 then failwith (string_of_int i))
           with
          | () -> Alcotest.fail "expected Failure"
          | exception Failure m ->
              Alcotest.(check string)
                (Printf.sprintf "jobs %d: lowest raising index" jobs)
                "4" m);
          let sum = Atomic.make 0 in
          Engine.Pool.iter pool 5 (fun i -> ignore (Atomic.fetch_and_add sum i));
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: pool survives" jobs)
            10 (Atomic.get sum)))
    [ 1; 2; 4 ]

(* More domains than the runtime holds is refused before any spawns. *)
let test_create_rejects_past_the_cap () =
  Alcotest.(check bool) "invalid_arg on jobs=129" true
    (try
       ignore (Engine.Pool.create ~jobs:(Engine.Pool.max_jobs + 1) ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "identical output on 1/2/4 domains" `Quick
      test_identical_across_worker_counts;
    Alcotest.test_case "canonical result order" `Quick test_canonical_order;
    Alcotest.test_case "failure reported with scenario label" `Quick
      test_failure_reported_with_label;
    Alcotest.test_case "first failure in canonical order" `Quick
      test_first_failure_in_canonical_order;
    Alcotest.test_case "sequential degradation (jobs=1)" `Quick
      test_sequential_degradation;
    Alcotest.test_case "poisoned cell leaves survivors identical" `Quick
      test_poisoned_cell_leaves_survivors_identical;
    Alcotest.test_case "jobs=0 rejected" `Quick test_create_rejects_zero_jobs;
    Alcotest.test_case "map_collect per-cell verdicts" `Quick
      test_map_collect_verdicts;
    Alcotest.test_case "map_collect all-ok / all-fail" `Quick
      test_map_collect_all_ok_and_all_fail;
    Alcotest.test_case "iter: lowest raising index, raw" `Quick
      test_iter_lowest_exception;
    Alcotest.test_case "jobs past the domain limit rejected" `Quick
      test_create_rejects_past_the_cap;
  ]
