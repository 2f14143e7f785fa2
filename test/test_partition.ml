(* The conservative-lookahead partition synchronizer (Sim.Partition):
   channel validation, epoch/horizon semantics, break quiescence, and
   the determinism contract — a partitioned model must replay a
   single-scheduler oracle's trajectory exactly, at any worker count. *)

module Time = Sim.Time
module Scheduler = Sim.Scheduler
module Partition = Sim.Partition

let ms = Time.ms
let seed_of i = 1000 + i

let test_create_validation () =
  Alcotest.check_raises "parts < 1"
    (Invalid_argument "Partition.create: need at least 1 partition")
    (fun () -> ignore (Partition.create ~parts:0 ~seed_of));
  let p = Partition.create ~parts:2 ~seed_of in
  Alcotest.(check int) "no channels: max_int lookahead" max_int
    (Partition.min_lookahead_ns p)

let test_channel_validation () =
  let p = Partition.create ~parts:2 ~seed_of in
  let handler _ () = () in
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  expect_invalid "equal endpoints" (fun () ->
      ignore (Partition.channel p ~src:0 ~dst:0 ~lookahead:(ms 1) ~handler));
  expect_invalid "src out of range" (fun () ->
      ignore (Partition.channel p ~src:2 ~dst:0 ~lookahead:(ms 1) ~handler));
  expect_invalid "zero lookahead" (fun () ->
      ignore
        (Partition.channel p ~src:0 ~dst:1 ~lookahead:Time.zero ~handler));
  ignore (Partition.channel p ~src:0 ~dst:1 ~lookahead:(ms 1) ~handler);
  Alcotest.(check int) "min lookahead tracks the channel"
    (Time.to_ns_int (ms 1))
    (Partition.min_lookahead_ns p)

(* Ping-pong across the cut: a token bounces between two nodes with a
   fixed one-way latency, each arrival schedules the return. The oracle
   is the same model on one scheduler. *)
let pingpong_oracle ~latency ~until =
  let sched = Scheduler.create ~seed:42 () in
  let log = ref [] in
  let rec arrive side at hop =
    log := (Time.to_ns_int at, side, hop) :: !log;
    ignore
      (Scheduler.at sched (Time.add at latency) (fun () ->
           arrive (1 - side) (Time.add at latency) (hop + 1)))
  in
  ignore (Scheduler.at sched latency (fun () -> arrive 1 latency 1));
  Scheduler.run ~until sched;
  List.rev !log

let pingpong_partitioned ~latency ~until ~workers =
  let p = Partition.create ~parts:2 ~seed_of in
  (* One log per partition: epochs run concurrently, so cross-partition
     appends to a shared list would race. Merged afterwards by hop. *)
  let logs = [| ref []; ref [] |] in
  let chans = Array.make 2 None in
  let send ~src ~due hop =
    match chans.(src) with
    | Some ch -> Partition.Channel.send ch ~due hop
    | None -> assert false
  in
  let arrive dst due hop =
    logs.(dst) := (Time.to_ns_int due, dst, hop) :: !(logs.(dst));
    send ~src:dst ~due:(Time.add due latency) (hop + 1)
  in
  chans.(0) <-
    Some
      (Partition.channel p ~src:0 ~dst:1 ~lookahead:latency
         ~handler:(fun due hop -> arrive 1 due hop));
  chans.(1) <-
    Some
      (Partition.channel p ~src:1 ~dst:0 ~lookahead:latency
         ~handler:(fun due hop -> arrive 0 due hop));
  (* Kick from partition 0 at t=0 through its own channel, so the first
     arrival lands on node 1 at [latency] — matching the oracle. *)
  ignore
    (Scheduler.at (Partition.scheduler p 0) Time.zero (fun () ->
         send ~src:0 ~due:latency 1));
  Partition.run p ~until ~workers ();
  List.sort compare (List.rev_append !(logs.(0)) !(logs.(1)))

let triple = Alcotest.(list (triple int int int))

let test_pingpong_oracle () =
  let latency = ms 3 and until = Time.ms 100 in
  let oracle =
    List.sort compare (pingpong_oracle ~latency ~until)
  in
  Alcotest.check triple "partitioned = single-scheduler oracle" oracle
    (pingpong_partitioned ~latency ~until ~workers:1)

let test_worker_invariance () =
  let latency = ms 2 and until = Time.ms 50 in
  let one = pingpong_partitioned ~latency ~until ~workers:1 in
  let two = pingpong_partitioned ~latency ~until ~workers:2 in
  let eight = pingpong_partitioned ~latency ~until ~workers:8 in
  Alcotest.check triple "workers 1 = 2" one two;
  Alcotest.check triple "workers 1 = 8 (clamped)" one eight

let test_until_inclusive () =
  let p = Partition.create ~parts:2 ~seed_of in
  ignore
    (Partition.channel p ~src:0 ~dst:1 ~lookahead:(ms 1)
       ~handler:(fun _ () -> ()));
  let fired = ref 0 in
  ignore (Scheduler.at (Partition.scheduler p 0) (ms 10) (fun () -> incr fired));
  ignore (Scheduler.at (Partition.scheduler p 1) (ms 10) (fun () -> incr fired));
  Partition.run p ~until:(ms 10) ();
  Alcotest.(check int) "boundary events fire" 2 !fired;
  Alcotest.(check int) "clock 0 at until" (Time.to_ns_int (ms 10))
    (Time.to_ns_int (Scheduler.now (Partition.scheduler p 0)));
  Alcotest.(check int) "clock 1 at until" (Time.to_ns_int (ms 10))
    (Time.to_ns_int (Scheduler.now (Partition.scheduler p 1)))

(* Breaks: the model is globally quiesced — every event strictly below
   the break has fired on both partitions, clocks sit exactly at the
   break, and work injected by on_break runs afterwards. *)
let test_breaks_quiesce () =
  let p = Partition.create ~parts:2 ~seed_of in
  ignore
    (Partition.channel p ~src:0 ~dst:1 ~lookahead:(ms 1)
       ~handler:(fun _ () -> ()));
  let fired = ref [] in
  let note tag = fired := tag :: !fired in
  ignore (Scheduler.at (Partition.scheduler p 0) (ms 5) (fun () -> note "p0@5"));
  ignore
    (Scheduler.at (Partition.scheduler p 1) (ms 15) (fun () -> note "p1@15"));
  let breaks = [ ms 10 ] in
  let saw_break = ref false in
  let on_break at =
    saw_break := true;
    Alcotest.(check int) "break at 10ms" (Time.to_ns_int (ms 10))
      (Time.to_ns_int at);
    Alcotest.(check (list string)) "only pre-break events fired" [ "p0@5" ]
      (List.rev !fired);
    Alcotest.(check int) "clock 0 = break" (Time.to_ns_int (ms 10))
      (Time.to_ns_int (Scheduler.now (Partition.scheduler p 0)));
    Alcotest.(check int) "clock 1 = break" (Time.to_ns_int (ms 10))
      (Time.to_ns_int (Scheduler.now (Partition.scheduler p 1)));
    (* Injecting work exactly at the break is legal (the clock equals
       the break time), and it runs before later model events. *)
    ignore (Scheduler.at (Partition.scheduler p 1) (ms 10) (fun () -> note "inj@10"))
  in
  Partition.run p ~until:(ms 20) ~breaks ~on_break ();
  Alcotest.(check bool) "break observed" true !saw_break;
  Alcotest.(check (list string)) "full order" [ "p0@5"; "inj@10"; "p1@15" ]
    (List.rev !fired)

(* A worker exception must surface on the coordinator, not kill the
   process (Partition.run re-raises after the barrier). *)
let test_worker_exception_propagates () =
  let p = Partition.create ~parts:2 ~seed_of in
  ignore
    (Partition.channel p ~src:0 ~dst:1 ~lookahead:(ms 1)
       ~handler:(fun _ () -> ()));
  ignore
    (Scheduler.at (Partition.scheduler p 1) (ms 5) (fun () ->
         failwith "boom"));
  let raised =
    match Partition.run p ~until:(ms 10) ~workers:2 () with
    | () -> false
    | exception Failure m -> m = "boom"
  in
  Alcotest.(check bool) "Failure re-raised on coordinator" true raised

(* Partitions 1 and 2 both raise in the same epoch: the run re-raises
   partition 1's exception whichever domain ran which partition, so a
   caller that sorts failures by exception (serve's taxonomy) sees the
   same one at every worker count. *)
let test_lowest_partition_exception_wins () =
  let raised workers =
    let p = Partition.create ~parts:3 ~seed_of in
    ignore
      (Partition.channel p ~src:0 ~dst:1 ~lookahead:(ms 1)
         ~handler:(fun _ () -> ()));
    for i = 1 to 2 do
      ignore
        (Scheduler.at (Partition.scheduler p i) (ms 5) (fun () ->
             failwith (Printf.sprintf "partition %d" i)))
    done;
    match Partition.run p ~until:(ms 10) ~workers () with
    | () -> "none"
    | exception Failure m -> m
  in
  List.iter
    (fun workers ->
      Alcotest.(check string)
        (Printf.sprintf "workers %d" workers)
        "partition 1" (raised workers))
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "channel validation" `Quick test_channel_validation;
    Alcotest.test_case "ping-pong matches oracle" `Quick test_pingpong_oracle;
    Alcotest.test_case "worker-count invariance" `Quick test_worker_invariance;
    Alcotest.test_case "run ~until is inclusive" `Quick test_until_inclusive;
    Alcotest.test_case "breaks quiesce globally" `Quick test_breaks_quiesce;
    Alcotest.test_case "worker exception propagates" `Quick
      test_worker_exception_propagates;
    Alcotest.test_case "lowest raising partition wins at any workers" `Quick
      test_lowest_partition_exception_wins;
  ]
