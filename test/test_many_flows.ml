(* Tests for the flow-level many-flows engine and its Spec integration:
   bit-level determinism (same seed twice, and independence from the
   worker count), budgeted-flow retirement, and capacity conservation
   under overload. *)

module Mf = Workload.Many_flows

let start_engine ?(flows = 200) ?mean_size ?arrival_rate ?(red = None) ~seed
    () =
  let sched = Sim.Scheduler.create ~seed () in
  let t =
    Mf.start ~sched ~rng:(Sim.Scheduler.derive_rng sched) ~seed
      {
        Mf.default_params with
        flows;
        arrival_rate;
        mean_size;
        red;
        capacity_bytes_per_sec = 10e6 /. 8.;
        base_rtt = Sim.Time.ms 40;
        buffer_packets = 60;
      }
  in
  (sched, t)

let run_engine ?flows ?(duration = 5.) ?mean_size ?arrival_rate ?red ~seed () =
  let sched, t = start_engine ?flows ?mean_size ?arrival_rate ?red ~seed () in
  Sim.Scheduler.run ~until:(Sim.Time.of_sec duration) sched;
  t

let fingerprint t =
  ( Mf.delivered_bytes t,
    Mf.loss_events t,
    Mf.queue_packets t,
    Mf.sum_cwnd_bytes t,
    Mf.created t,
    Mf.completed t )

let test_engine_determinism () =
  let a = fingerprint (run_engine ~seed:7 ()) in
  let b = fingerprint (run_engine ~seed:7 ()) in
  Alcotest.(check bool) "same seed, identical counters" true (a = b);
  let c = fingerprint (run_engine ~seed:8 ()) in
  Alcotest.(check bool) "different seed diverges" true (a <> c)

let test_budgeted_flows_complete () =
  let t =
    run_engine ~flows:50 ~duration:30. ~mean_size:30_000 ~arrival_rate:25.
      ~seed:3 ()
  in
  Alcotest.(check int) "all flows created" 50 (Mf.created t);
  Alcotest.(check int) "all budgets drained" 50 (Mf.completed t);
  Alcotest.(check int) "none left running" 0 (Mf.active t);
  Alcotest.(check bool)
    "delivered at least the minimum sizes" true
    (Mf.delivered_bytes t >= 50. *. 1500.)

let test_goodput_bounded_by_capacity () =
  (* Heavy overload with RED: aggregate goodput must not exceed the
     fluid bottleneck's line rate. *)
  let red =
    Some
      { Netsim.Queue_disc.min_th = 15.; max_th = 45.; max_p = 0.1; weight = 0.002 }
  in
  let t = run_engine ~flows:5_000 ~duration:8. ~red ~seed:11 () in
  let g = Mf.goodput_mbps t ~duration:(Sim.Time.of_sec 8.) in
  Alcotest.(check bool)
    (Printf.sprintf "goodput %.1f <= 10 Mbit/s capacity" g)
    true
    (g <= 10.0 +. 1e-6);
  Alcotest.(check bool) "and the link is busy" true (g > 5.)

(* The table holds what the run holds. An engine whose flows all launch
   at t = 0 has one row per flow, as it always had. An arrival-driven
   one starts at 16 rows and doubles only when every row is live, so its
   capacity passes neither its flow count nor twice its peak of live
   rows. The peak is read every millisecond: a lower bound on the true
   one, so the check is, if anything, stricter than the claim. *)
let test_table_holds_live_rows () =
  let capacity t = Tcp.Flow_table.capacity (Mf.table t) in
  Alcotest.(check int) "all at t = 0: one row per flow" 200
    (capacity (run_engine ~flows:200 ~duration:0.1 ~seed:4 ()));
  List.iter
    (fun (what, flows, mean_size) ->
      let sched, t =
        start_engine ~flows ?mean_size ~arrival_rate:300. ~seed:9 ()
      in
      let peak = ref 0 in
      for ms = 1 to 4_000 do
        Sim.Scheduler.run ~until:(Sim.Time.ms ms) sched;
        peak := Int.max !peak (Mf.active t)
      done;
      let cap = capacity t in
      if cap > flows || cap > Int.max 16 (2 * !peak) then
        Alcotest.failf "%s: %d rows for %d flows, peak %d live" what cap flows
          !peak)
    [
      ("short transfers", 2_000, Some 3_000);
      ("long transfers", 400, Some 150_000);
      ("persistent", 300, None);
      ("fewer flows than 16 rows", 10, None);
    ]

let mf_spec ~jobs:_ ~seed =
  {
    Core.Spec.default with
    name = "mf-jobs";
    seed;
    duration = Sim.Time.of_sec 6.;
    sample_period = Sim.Time.ms 250;
    topology =
      Core.Spec.Duplex
        {
          Core.Spec.default_duplex with
          rate = Sim.Units.mbps 20.;
          one_way_delay = Sim.Time.ms 20;
          ifq_capacity = 80;
        };
    flows =
      [
        {
          Core.Spec.default_flow with
          workload =
            Core.Spec.Many_flows
              {
                flows = 300;
                arrival_rate = Some 100.;
                arrival_pareto_shape = None;
                mean_size = Some 200_000;
                size_pareto_shape = 1.3;
              };
        };
      ];
  }

let outcome_fingerprint (o : Core.Spec.outcome) =
  let r = List.hd o.results in
  ( r.goodput_mbps,
    r.congestion_signals,
    r.final_cwnd_segments,
    r.mean_ifq,
    r.peak_ifq,
    Array.to_list (Sim.Stats.Series.values r.cwnd_series),
    Array.to_list (Sim.Stats.Series.values r.ifq_series),
    o.path.queue_mean )

let test_jobs_independent () =
  (* The same batch through 1 worker and through 2 domains must be
     byte-identical: per-flow seeds derive from the spec, not from
     execution interleaving. *)
  let specs = [ mf_spec ~jobs:1 ~seed:5; mf_spec ~jobs:1 ~seed:6 ] in
  let seq =
    Engine.Pool.with_pool ~jobs:1 (fun pool -> Core.Spec.run_batch ~pool specs)
  in
  let par =
    Engine.Pool.with_pool ~jobs:2 (fun pool -> Core.Spec.run_batch ~pool specs)
  in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        "outcome independent of worker count" true
        (outcome_fingerprint a = outcome_fingerprint b))
    seq par;
  Alcotest.(check bool)
    "seeds still matter" true
    (outcome_fingerprint (List.nth seq 0) <> outcome_fingerprint (List.nth seq 1))

(* Parameter validation: every nonsensical value must be refused up
   front with a named Invalid_argument, not surface later as a NaN
   schedule or an infinite-mean sampler. *)
let test_param_validation () =
  let start params =
    let sched = Sim.Scheduler.create ~seed:1 () in
    ignore (Mf.start ~sched ~rng:(Sim.Scheduler.derive_rng sched) ~seed:1 params)
  in
  let rejects what msg params =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> start params)
  in
  rejects "zero flows" "Many_flows.start: need a positive flow count"
    { Mf.default_params with flows = 0 };
  rejects "negative capacity" "Many_flows.start: need a positive capacity"
    { Mf.default_params with capacity_bytes_per_sec = -1. };
  rejects "zero mss" "Many_flows.start: need a positive mss"
    { Mf.default_params with mss = 0 };
  rejects "zero initial window"
    "Many_flows.start: need a positive initial window"
    { Mf.default_params with init_cwnd_segments = 0 };
  rejects "zero buffer" "Many_flows.start: need at least one buffer packet"
    { Mf.default_params with buffer_packets = 0 };
  rejects "zero RTT" "Many_flows.start: need a positive base RTT"
    { Mf.default_params with base_rtt = Sim.Time.zero };
  rejects "zero arrival rate"
    "Many_flows.start: arrival_rate must be positive"
    { Mf.default_params with arrival_rate = Some 0. };
  rejects "negative arrival rate"
    "Many_flows.start: arrival_rate must be positive"
    { Mf.default_params with arrival_rate = Some (-3.) };
  rejects "arrival shape at 1"
    "Many_flows.start: arrival_pareto_shape must exceed 1 (shape <= 1 has \
     an infinite mean inter-arrival gap)"
    {
      Mf.default_params with
      arrival_rate = Some 10.;
      arrival_pareto_shape = Some 1.;
    };
  rejects "zero mean size" "Many_flows.start: mean_size must be positive"
    { Mf.default_params with mean_size = Some 0 };
  rejects "size shape below 1"
    "Many_flows.start: size_pareto_shape must exceed 1 (shape <= 1 has an \
     infinite mean flow size)"
    { Mf.default_params with mean_size = Some 50_000; size_pareto_shape = 0.9 };
  (* The size shape is ignored — and so not validated — for persistent
     flows, where no size is ever drawn. *)
  start { Mf.default_params with flows = 2; size_pareto_shape = 0.5 }

(* Every row shares the engine's one controller, so an avoidance with
   per-connection state (CUBIC's epoch, Vegas's and FAST's RTT
   averages) would let one flow's loss reset every other flow's. *)
let test_rejects_stateful_cong_avoid () =
  let start cong_avoid =
    let sched = Sim.Scheduler.create ~seed:1 () in
    ignore
      (Mf.start ~sched ~rng:(Sim.Scheduler.derive_rng sched) ~seed:1
         ~cong_avoid Mf.default_params)
  in
  Alcotest.check_raises "cubic"
    (Invalid_argument
       "Many_flows.start: congestion avoidance \"cubic\" keeps \
        per-connection state, but every many-flows row shares one \
        controller (use reno, relentless or small-rtt)")
    (fun () -> start (Tcp.Cong_avoid.cubic ()));
  List.iter
    (fun cc ->
      match start cc with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s accepted" cc.Tcp.Cong_avoid.name)
    [ Tcp.Cong_avoid.vegas (); Tcp.Cong_avoid.fast () ];
  start (Tcp.Cong_avoid.relentless ());
  start (Tcp.Cong_avoid.small_rtt ())

let test_spec_rejects_two_many_flows () =
  let f = (mf_spec ~jobs:1 ~seed:1).flows |> List.hd in
  let bad = { (mf_spec ~jobs:1 ~seed:1) with flows = [ f; f ] } in
  Alcotest.check_raises "two many_flows flows rejected"
    (Invalid_argument "Spec.build: at most one many_flows flow per spec")
    (fun () ->
      ignore (Core.Spec.build bad))

(* --- running totals against a recount ----------------------------------- *)

(* Random populations split over 1-3 engines ("shards") on one
   scheduler, as Core.Spec lays out a sharded many_flows flow at
   domains 1. At every sample, and after a snapshot of every shard is
   restored into fresh engines, each shard's tracked totals must equal a
   recount over its live Flow_table rows:
   - [active] is the number of live rows;
   - [sum_cwnd_bytes] is the sum of their windows, to within 1e-3 bytes
     per flow ever created. A running float sum picks up rounding error
     of order 1e-16 of its size per update, far below that bound, while
     a retiring flow whose last window change goes uncounted leaves at
     least hundreds of bytes behind;
   - walking every pending round timer (kind 0) through its cohort's
     [timer] links reaches every live row exactly once, and no free
     row. *)

type shard_case = {
  shards : int;
  flows : int;
  arrival_rate : float option;
  arrival_pareto_shape : float option;
  mean_size : int option;
  size_pareto_shape : float;
  red : Netsim.Queue_disc.red_params option;
  capacity_mbps : float;
  base_rtt_ms : int;
  buffer_packets : int;
  seed : int;
}

let print_shard_case c =
  let opt f = function None -> "none" | Some x -> f x in
  Printf.sprintf
    "shards=%d flows=%d arrivals=%s pareto=%s size=%s/%.2f red=%s C=%.1f \
     Mbit/s rtt=%d ms buffer=%d seed=%d"
    c.shards c.flows
    (opt (Printf.sprintf "%.1f/s") c.arrival_rate)
    (opt (Printf.sprintf "%.2f") c.arrival_pareto_shape)
    (opt string_of_int c.mean_size)
    c.size_pareto_shape
    (opt
       (fun (r : Netsim.Queue_disc.red_params) ->
         Printf.sprintf "%.0f..%.0f p%.2f" r.min_th r.max_th r.max_p)
       c.red)
    c.capacity_mbps c.base_rtt_ms c.buffer_packets c.seed

(* Floats come from scaled integer ranges, which shrink cleanly. *)
let gen_shard_case =
  let open QCheck2.Gen in
  let scaled lo hi ~by = map (fun i -> float_of_int i /. by) (int_range lo hi) in
  let* shards = int_range 1 3 in
  let* flows = int_range 20 400 in
  let* arrival_rate = opt (scaled 50 2000 ~by:1.) in
  let* arrival_pareto_shape = opt (scaled 120 250 ~by:100.) in
  let* mean_size = opt (int_range 5_000 200_000) in
  let* size_pareto_shape = scaled 110 200 ~by:100. in
  let* red =
    opt
      (let* min_th = scaled 5 30 ~by:1. in
       let* span = scaled 10 60 ~by:1. in
       let* max_p = scaled 5 30 ~by:100. in
       return
         { Netsim.Queue_disc.min_th; max_th = min_th +. span; max_p; weight = 0.002 })
  in
  let* capacity_mbps = scaled 5 100 ~by:1. in
  let* base_rtt_ms = int_range 2 60 in
  let* buffer_packets = int_range 20 200 in
  let* seed = int_range 1 1_000_000 in
  return
    {
      shards;
      flows = Stdlib.max flows shards;
      arrival_rate;
      arrival_pareto_shape;
      mean_size;
      size_pareto_shape;
      red;
      capacity_mbps;
      base_rtt_ms;
      buffer_packets;
      seed;
    }

(* Shard [k] of case [c] on [sched], split like Core.Spec splits flows
   and arrival rate over segments. *)
let start_shards c sched =
  Array.init c.shards (fun k ->
      let seed = c.seed + (1000 * k) in
      Mf.start ~sched ~rng:(Sim.Rng.of_seed seed) ~seed
        {
          Mf.default_params with
          flows = (c.flows / c.shards) + (if k < c.flows mod c.shards then 1 else 0);
          arrival_rate =
            Option.map (fun r -> r /. float_of_int c.shards) c.arrival_rate;
          arrival_pareto_shape = c.arrival_pareto_shape;
          mean_size = c.mean_size;
          size_pareto_shape = c.size_pareto_shape;
          capacity_bytes_per_sec = c.capacity_mbps *. 1e6 /. 8.;
          base_rtt = Sim.Time.ms c.base_rtt_ms;
          buffer_packets = c.buffer_packets;
          red = c.red;
        })

let check_recount ~where t =
  let tbl = Mf.table t in
  let cap = Tcp.Flow_table.capacity tbl in
  let live = ref 0 and sum = ref 0. in
  for i = 0 to cap - 1 do
    if Tcp.Flow_table.is_live tbl i then begin
      incr live;
      sum := !sum +. tbl.Tcp.Flow_table.cwnd.(i)
    end
  done;
  if Mf.active t <> !live then
    QCheck2.Test.fail_reportf "%s: active %d but %d live rows" where
      (Mf.active t) !live;
  let tol = 1e-3 *. float_of_int (Stdlib.max 1 (Mf.created t)) in
  if Float.abs (Mf.sum_cwnd_bytes t -. !sum) > tol then
    QCheck2.Test.fail_reportf "%s: sum_cwnd %.6f but the live rows sum to %.6f"
      where (Mf.sum_cwnd_bytes t) !sum;
  let seen = Array.make cap 0 and steps = ref 0 in
  Sim.Timer_wheel.iter_pending (Mf.wheel t) ~f:(fun ~due_ns:_ ~kind ~flow ->
      if kind = 0 then begin
        let row = ref flow in
        while !row >= 0 do
          incr steps;
          if !steps > cap || !row >= cap then
            QCheck2.Test.fail_reportf "%s: cohort links leave the table or loop"
              where;
          seen.(!row) <- seen.(!row) + 1;
          row := tbl.Tcp.Flow_table.timer.(!row)
        done
      end);
  Array.iteri
    (fun i n ->
      let want = if Tcp.Flow_table.is_live tbl i then 1 else 0 in
      if n <> want then
        QCheck2.Test.fail_reportf "%s: row %d reached %d times by round timers"
          where i n)
    seen

let qcheck_totals_match_recount =
  QCheck2.Test.make ~count:25 ~print:print_shard_case
    ~name:"active, sum_cwnd and round timers match a recount of live rows"
    gen_shard_case
    (fun c ->
      let sample = Sim.Time.ms 250 and snapshot_at = 4 and samples = 8 in
      let check_all ~where shards =
        Array.iteri
          (fun k t -> check_recount ~where:(Printf.sprintf "%s, shard %d" where k) t)
          shards
      in
      let run_samples sched shards ~from ~until =
        for i = from to until do
          Sim.Scheduler.run ~until:(Sim.Time.mul_int sample i) sched;
          check_all ~where:(Printf.sprintf "sample %d" i) shards
        done
      in
      let sched = Sim.Scheduler.create ~seed:c.seed () in
      let shards = start_shards c sched in
      check_all ~where:"start" shards;
      run_samples sched shards ~from:1 ~until:snapshot_at;
      let w = Sim.Snapshot.writer () in
      Array.iteri
        (fun k t -> Mf.save ~prefix:(Printf.sprintf "mf.%d." k) t w)
        shards;
      let r = Sim.Snapshot.of_string (Sim.Snapshot.to_string w) in
      let sched' = Sim.Scheduler.create ~seed:c.seed () in
      let restored = start_shards c sched' in
      Array.iteri
        (fun k t -> Mf.restore ~prefix:(Printf.sprintf "mf.%d." k) t r)
        restored;
      Sim.Scheduler.restore_clock sched' (Sim.Time.mul_int sample snapshot_at);
      check_all ~where:"after restore" restored;
      run_samples sched shards ~from:(snapshot_at + 1) ~until:samples;
      run_samples sched' restored ~from:(snapshot_at + 1) ~until:samples;
      Array.map fingerprint shards = Array.map fingerprint restored)

(* A round timer naming a free row, or the same row twice in a row,
   would link a cohort through garbage or to itself: restore must refuse
   it. The reader keeps the last section of a name, so appending a
   section overrides the saved one. *)
let test_restore_rejects_bad_round_rows () =
  let fresh () =
    let sched = Sim.Scheduler.create ~seed:1 () in
    Mf.start ~sched ~rng:(Sim.Rng.of_seed 1) ~seed:1
      { Mf.default_params with flows = 10 }
  in
  let image rows =
    let w = Sim.Snapshot.writer () in
    Mf.save (fresh ()) w;
    Sim.Snapshot.put_int_array w "mf.wheel_flow" rows;
    Sim.Snapshot.of_string (Sim.Snapshot.to_string w)
  in
  Mf.restore (fresh ()) (image (Array.init 10 Fun.id));
  List.iter
    (fun (what, rows) ->
      Alcotest.check_raises what
        (Sim.Snapshot.Corrupt "Many_flows: bad round timer row") (fun () ->
          Mf.restore (fresh ()) (image rows)))
    [
      ("free row", Array.init 10 (fun i -> if i = 4 then 12 else i));
      ("repeated row", Array.init 10 (fun i -> if i = 5 then 4 else i));
    ]

(* The flow-round allocates nothing. One second of 200 persistent flows
   on a RED bottleneck, run after [start], takes 14,000 slow-start,
   avoidance and lost rounds. Each round reads and writes the
   Flow_table columns, draws its loss from the row's xorshift as an
   int and applies the policy's in-place rules, so none allocates; a
   box per round would add 28,000 words or more. Of the 418 words
   [Sim.Scheduler.run] allocates, 2 are its [~until] option and the
   rest the queue refresh, once per instant (70 here: the rows fire as
   one cohort). It passes floats into other modules: [Sim.Time.of_sec]'s
   argument (2 words) and the RED curve's argument and result (4, or 2
   at the two instants it returns its constant 0). *)
let test_round_allocates_nothing () =
  let sched = Sim.Scheduler.create ~seed:3 () in
  let t =
    Mf.start ~sched ~rng:(Sim.Scheduler.derive_rng sched) ~seed:3
      {
        Mf.default_params with
        flows = 200;
        capacity_bytes_per_sec = 1e9 /. 8.;
        base_rtt = Sim.Time.ms 10;
        buffer_packets = 2_000;
        red =
          Some
            {
              Netsim.Queue_disc.min_th = 200.;
              max_th = 600.;
              max_p = 0.1;
              weight = 0.002;
            };
      }
  in
  let before = Gc.minor_words () in
  Sim.Scheduler.run ~until:(Sim.Time.sec 1) sched;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "rounds lost" 2_873 (Mf.loss_events t);
  Alcotest.(check int) "minor words over 1 s of rounds" 418 words

(* The same budget for wide windows: 2,000 persistent flows on
   mf_wide_2k's 100 Gbit/s RED duplex, measured from 1 s to 3 s. Every
   flow has left slow start through its one loss and is in congestion
   avoidance at ~170 segments, so each instant's cohort folds ~170 ACK
   steps per row. The words are the per-instant queue refresh and
   [~until]'s option; a box per round or per fold call would add
   thousands. *)
let test_wide_cohort_words () =
  let sched = Sim.Scheduler.create ~seed:2 () in
  let t =
    Mf.start ~sched ~rng:(Sim.Scheduler.derive_rng sched) ~seed:2
      {
        Mf.default_params with
        flows = 2_000;
        capacity_bytes_per_sec = 100e9 /. 8.;
        base_rtt = Sim.Time.ms 60;
        buffer_packets = 25_000;
        red =
          Some
            {
              Netsim.Queue_disc.min_th = 5_000.;
              max_th = 15_000.;
              max_p = 0.1;
              weight = 0.002;
            };
      }
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 1) sched;
  let before = Gc.minor_words () in
  Sim.Scheduler.run ~until:(Sim.Time.sec 3) sched;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "one loss per flow, at slow start's end" 2_000
    (Mf.loss_events t);
  Alcotest.(check int) "minor words from 1 s to 3 s" 134 words

let suite =
  [
    Alcotest.test_case "engine is deterministic per seed" `Quick
      test_engine_determinism;
    Alcotest.test_case "budgeted flows retire" `Quick
      test_budgeted_flows_complete;
    Alcotest.test_case "goodput bounded by capacity under overload" `Quick
      test_goodput_bounded_by_capacity;
    Alcotest.test_case "outcome independent of --jobs" `Quick
      test_jobs_independent;
    Alcotest.test_case "parameter validation" `Quick test_param_validation;
    Alcotest.test_case "stateful avoidance rejected" `Quick
      test_rejects_stateful_cong_avoid;
    Alcotest.test_case "at most one many_flows per spec" `Quick
      test_spec_rejects_two_many_flows;
    QCheck_alcotest.to_alcotest qcheck_totals_match_recount;
    Alcotest.test_case "restore rejects bad round timer rows" `Quick
      test_restore_rejects_bad_round_rows;
    Alcotest.test_case "1 s of rounds allocates only per instant" `Quick
      test_round_allocates_nothing;
    Alcotest.test_case "2 s of a wide cohort allocates only per instant"
      `Quick test_wide_cohort_words;
    Alcotest.test_case "the table holds live rows" `Quick
      test_table_holds_live_rows;
  ]
