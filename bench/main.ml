(* bench/main.exe [--jobs N] [micro]: times the simulation core into
   results/BENCH_core.json (see micro below). --jobs is accepted for
   the callers that pass it; every timing runs on one domain. *)

let results_dir = "results"

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Timings of the simulation core: the isolated loops, which no
   reference workload can stand in for, and the partitioned engine,
   which no reference workload runs. Each run writes one reading per
   metric to results/BENCH_core.json in the shape refbench/compare.exe
   reads, together with its own metric catalogue, so any run file is
   also the catalogue:

     refbench/compare.exe --benchmark RUN.json P1.json... -- C1.json...

   bench/compare.sh takes those pairs against a base commit. No
   allocation is reported here: the test suite pins each loop's minor
   words exactly. *)

(* Wall nanoseconds per event of [f], which returns its event count. *)
let ns_per_event f =
  let t0 = Unix.gettimeofday () in
  let events = f () in
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int events

let core_metric_churn () =
  (* Steady-state add/pop churn at depth 1024. *)
  let q = Sim.Event_queue.create () in
  for i = 0 to 1023 do
    ignore
      (Sim.Event_queue.add q ~time:(Sim.Time.ns (i * 977 mod 7919)) (fun () -> ()))
  done;
  let n = 1_000_000 in
  ns_per_event (fun () ->
      (* The scheduler's unboxed hot path: next_time_ns + pop_action_exn. *)
      for i = 0 to n - 1 do
        let ns = Sim.Event_queue.next_time_ns q in
        let (_ : unit -> unit) = Sim.Event_queue.pop_action_exn q in
        ignore
          (Sim.Event_queue.add q
             ~time:(Sim.Time.add (Sim.Time.of_ns_int ns)
                      (Sim.Time.ns (i * 977 mod 7919)))
             (fun () -> ()))
      done;
      n)

(* Timer churn as the many-flows engine makes it: 1,024 timers
   pending, each firing re-arms one timer [churn_due] ticks on, and the
   wheel advances one attention point at a time, as [Sim.Scheduler]
   drives it. eq/churn-1M is the heap's loop of the same shape, so
   wheel/speedup-vs-heap compares the two; sim.timer-wheel pins the
   wheel's zero allocation. Every [arm] is wrapped in [ignore], so the
   loop builds against a wheel whose [arm] returns a handle as well. *)
let churn_due i = (i * 977 mod 7919) + 1

let core_metric_wheel_churn () =
  let tick = 65536 and n = 1_000_000 in
  let now = ref 0 and fired = ref 0 in
  let rec w =
    lazy
      (Sim.Timer_wheel.create ~tick_ns:tick ~initial_capacity:2048
         ~on_fire:(fun ~kind:_ ~flow ->
           incr fired;
           ignore
             (Sim.Timer_wheel.arm (Lazy.force w)
                ~due_ns:(!now + (churn_due !fired * tick))
                ~kind:0 ~flow))
         ())
  in
  let w = Lazy.force w in
  for i = 0 to 1023 do
    ignore (Sim.Timer_wheel.arm w ~due_ns:(churn_due i * tick) ~kind:0 ~flow:i)
  done;
  ns_per_event (fun () ->
      while !fired < n do
        now := Sim.Timer_wheel.next_due_ns w;
        Sim.Timer_wheel.advance w ~now_ns:!now
      done;
      !fired)

(* Steady-state add/cancel churn on the heap: the sender's RTO and
   delayed-ACK re-arms, which cancel through [Sim.Scheduler.cancel]. *)
let core_metric_heap_arm_cancel () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 1023 do
    ignore (Sim.Event_queue.add q ~time:(Sim.Time.ns (churn_due i)) (fun () -> ()))
  done;
  let n = 1_000_000 in
  ns_per_event (fun () ->
      for i = 0 to n - 1 do
        Sim.Event_queue.cancel q
          (Sim.Event_queue.add q
             ~time:(Sim.Time.ns (churn_due i))
             (fun () -> ()))
      done;
      n)

let core_metric_cancel_heavy () =
  (* Half the scheduled events are cancelled before draining: each
     cancel removes its entry from the middle of the heap. *)
  let rounds = 500 and per = 1024 in
  ns_per_event (fun () ->
      for _ = 1 to rounds do
        let q = Sim.Event_queue.create () in
        let hs =
          Array.init per (fun i ->
              Sim.Event_queue.add q
                ~time:(Sim.Time.ns (i * 977 mod 7919))
                (fun () -> ()))
        in
        Array.iteri
          (fun i h -> if i land 1 = 0 then Sim.Event_queue.cancel q h)
          hs;
        let rec drain () =
          match Sim.Event_queue.pop q with Some _ -> drain () | None -> ()
        in
        drain ()
      done;
      rounds * per)

(* One periodic timer re-armed a million times, with or without a
   tracer installed on the scheduler. The tracer's default mask leaves
   the sched category out: every dispatch pays the emit call and the
   mask test discards it. That is the "compiled in, disabled"
   configuration of every untraced run; sim.scheduler pins both loops'
   minor words. *)
let core_metric_periodic ?tracer () =
  let s = Sim.Scheduler.create () in
  Sim.Scheduler.set_tracer s tracer;
  let count = ref 0 in
  ignore (Sim.Scheduler.every s (Sim.Time.us 10) (fun () -> incr count));
  ns_per_event (fun () ->
      Sim.Scheduler.run ~until:(Sim.Time.sec 10) s;
      !count)

let core_metric_trace_emit () =
  (* Retained emission into a wrapped ring: four int stores per record,
     zero allocation. *)
  let tr = Trace.create ~capacity:65536 () in
  let n = 1_000_000 in
  ns_per_event (fun () ->
      for i = 0 to n - 1 do
        Trace.emit tr ~time_ns:i ~code:Trace.Code.link_tx ~src:1
          ~arg1:(i land 0xff) ~arg2:1500
      done;
      n)

(* The per-ACK window-update arithmetic, driven a million times through
   Reno's congestion-avoidance record. *)
let core_metric_policy_ack () =
  let cc = Tcp.Cong_avoid.reno () in
  let mss = Tcp.Config.default.Tcp.Config.mss in
  let n = 1_000_000 in
  ns_per_event (fun () ->
      let cwnd = ref (100. *. float_of_int mss) in
      for _ = 1 to n do
        cwnd :=
          cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:!cwnd ~mss
            ~srtt:None ~min_rtt:None ~now:Sim.Time.zero;
        if !cwnd > 1e7 then cwnd := 100. *. float_of_int mss
      done;
      n)

(* The same million ACKs through Reno's per-round fold, one row of 200
   per call — the many-flows engine's one-row loop at a ~200-segment
   window, in place on a one-row window column. Reported per ACK, so it
   reads against policy/ack-direct-1M; tcp.cwnd-table pins the fold at
   0 minor words. *)
let core_metric_policy_round_reno () =
  let mss = Tcp.Config.default.Tcp.Config.mss in
  let { Tcp.Cong_avoid.fold; _ } =
    Option.get (Tcp.Cong_avoid.reno ()).Tcp.Cong_avoid.on_round
  in
  let srtt = Sim.Time.ms 60 in
  let batch = 200 and n = 1_000_000 in
  let rows = [| 0 |] and acks = [| batch |] in
  ns_per_event (fun () ->
      let cwnd = [| 100. *. float_of_int mss |] in
      for _ = 1 to n / batch do
        fold cwnd rows acks 1 ~mss ~srtt;
        if cwnd.(0) > 1e7 then cwnd.(0) <- 100. *. float_of_int mss
      done;
      n)

(* The fold at mf_wide_2k's shape: one call over a 2,000-row column at
   ~200 ACKs per row (190 to 210, so the four lanes of a group end
   apart), three times over — 1.2 M ACKs, reported per ACK beside
   policy/round-reno-1M, whose single row runs one chain at a time. *)
let core_metric_policy_round_lanes () =
  let mss = Tcp.Config.default.Tcp.Config.mss in
  let { Tcp.Cong_avoid.fold; _ } =
    Option.get (Tcp.Cong_avoid.reno ()).Tcp.Cong_avoid.on_round
  in
  let srtt = Sim.Time.ms 60 in
  let n = 2_000 in
  let rows = Array.init n Fun.id in
  let acks = Array.init n (fun i -> 190 + (i mod 21)) in
  let per_call = Array.fold_left ( + ) 0 acks in
  ns_per_event (fun () ->
      let cwnd = Array.make n (200. *. float_of_int mss) in
      for _ = 1 to 3 do
        fold cwnd rows acks n ~mss ~srtt
      done;
      3 * per_call)

(* The checkpoint codec under the serve daemon: serialize a 1M-row flow
   table plus a fully loaded timer wheel into a Snapshot image and
   restore both into fresh structures, all in memory so the timing is
   the codec's, not the filesystem's. tcp.flow-table pins the minor
   words of the same round trip: the columns must travel as whole-array
   section copies, not element by element — the checkpoint stall this
   bounds is what lets a live 1M-flow run snapshot on an interval
   without falling behind. *)
let core_metric_snapshot_roundtrip () =
  let n = 1_000_000 in
  let fill () =
    let t = Tcp.Flow_table.create ~initial_capacity:n () in
    for i = 0 to n - 1 do
      let r = Tcp.Flow_table.alloc t in
      t.cwnd.(r) <- float_of_int (1 + (i mod 97));
      t.budget.(r) <- i * 1448;
      t.timer.(r) <- i;
      Tcp.Flow_table.seed_rng t r (i + 1)
    done;
    t
  in
  let table = fill () in
  let wheel =
    Sim.Timer_wheel.create ~initial_capacity:n
      ~on_fire:(fun ~kind:_ ~flow:_ -> ())
      ()
  in
  let tick = Sim.Timer_wheel.tick_ns wheel in
  for i = 0 to n - 1 do
    ignore (Sim.Timer_wheel.arm wheel ~due_ns:(churn_due i * tick) ~kind:0 ~flow:i)
  done;
  let save_wheel w wr =
    let pending = Sim.Timer_wheel.pending w in
    let due = Array.make pending 0 and flows = Array.make pending 0 in
    let i = ref 0 in
    Sim.Timer_wheel.iter_pending w ~f:(fun ~due_ns ~kind:_ ~flow ->
        due.(!i) <- due_ns;
        flows.(!i) <- flow;
        incr i);
    Sim.Snapshot.put_int_array wr "wheel.due_ns" due;
    Sim.Snapshot.put_int_array wr "wheel.flow" flows
  in
  let fresh_table = Tcp.Flow_table.create ~initial_capacity:n () in
  ns_per_event (fun () ->
      let wr = Sim.Snapshot.writer () in
      Tcp.Flow_table.save table ~prefix:"ft." wr;
      save_wheel wheel wr;
      let image = Sim.Snapshot.to_string wr in
      let rd = Sim.Snapshot.of_string image in
      Tcp.Flow_table.restore fresh_table ~prefix:"ft." rd;
      let due = Sim.Snapshot.get_int_array rd "wheel.due_ns" in
      let flows = Sim.Snapshot.get_int_array rd "wheel.flow" in
      let w2 =
        Sim.Timer_wheel.create ~initial_capacity:n
          ~on_fire:(fun ~kind:_ ~flow:_ -> ())
          ()
      in
      Array.iteri
        (fun i due_ns ->
          ignore (Sim.Timer_wheel.arm w2 ~due_ns ~kind:0 ~flow:flows.(i)))
        due;
      assert (Sim.Timer_wheel.pending w2 = n);
      assert (Tcp.Flow_table.in_use fresh_table = n);
      n)

(* The partitioned-DES showcase: four loaded dumbbell segments chained
   through core duplex links, the topology [examples/
   dumbbell_of_dumbbells.json] ships. Series recording stays off so the
   wall clock measures the engines, not the samplers. *)
let pdes_spec ~domains =
  let bulk = Core.Spec.Bulk { bytes = None } in
  let flow ?(start_at = Sim.Time.zero) pair =
    {
      Core.Spec.default_flow with
      Core.Spec.label = Some (Printf.sprintf "p%d" pair);
      pair;
      start_at;
      workload = bulk;
    }
  in
  {
    Core.Spec.default with
    Core.Spec.name = "bench-pdes";
    seed = 42;
    duration = Sim.Time.sec 2;
    record_series = false;
    domains;
    topology =
      Core.Spec.Multi_dumbbell
        {
          Core.Spec.segments = 4;
          m_pairs = 2;
          m_access_rate = Sim.Units.mbps 1000.;
          m_access_delay = Sim.Time.ms 1;
          m_bottleneck_rate = Sim.Units.mbps 100.;
          m_bottleneck_delay = Sim.Time.ms 10;
          core_rate = Sim.Units.mbps 400.;
          core_delay = Sim.Time.ms 5;
          m_buffer_packets = 250;
          m_host_ifq_capacity = 100;
          m_red = None;
          cross_pairs = 3;
        };
    flows =
      List.concat_map
        (fun s ->
          [
            flow (2 * s);
            flow ~start_at:(Sim.Time.ms (500 * (s + 1))) ((2 * s) + 1);
          ])
        [ 0; 1; 2; 3 ]
      @ [ flow 8; flow 9; flow 10 ];
  }

(* Sharded many-flows on the same four-segment topology: one flow-level
   sub-population per segment. Times the shard split and multi-wheel
   scheduler at domains 1 and the synchronizer at domains 4. *)
let pdes_mf_spec ~domains =
  {
    (pdes_spec ~domains) with
    Core.Spec.name = "bench-pdes-mf";
    seed = 43;
    duration = Sim.Time.sec 4;
    flows =
      [
        {
          Core.Spec.default_flow with
          Core.Spec.workload =
            Core.Spec.Many_flows
              {
                flows = 100_000;
                arrival_rate = Some 50_000.;
                arrival_pareto_shape = None;
                mean_size = Some 60_000;
                size_pareto_shape = 1.3;
              };
        };
      ];
  }

(* Wall seconds of one run of [spec]. *)
let spec_wall spec () =
  let t0 = Unix.gettimeofday () in
  ignore (Core.Spec.run spec);
  Unix.gettimeofday () -. t0

(* Every timing, in the order it runs: wall ns per event for a loop,
   wall seconds for a pdes run. Lower is better. *)
let timings =
  [
    ("eq/churn-1M", "ns/event", core_metric_churn);
    ("eq/cancel-heavy", "ns/event", core_metric_cancel_heavy);
    ("eq/arm-cancel-1M", "ns/event", core_metric_heap_arm_cancel);
    ("wheel/churn-1M", "ns/event", core_metric_wheel_churn);
    ("eq/periodic-1M", "ns/event", fun () -> core_metric_periodic ());
    ( "trace/emit-off-1M", "ns/event",
      fun () ->
        core_metric_periodic ~tracer:(Trace.create ~capacity:1024 ()) () );
    ("trace/emit-on-1M", "ns/event", core_metric_trace_emit);
    ("policy/ack-direct-1M", "ns/event", core_metric_policy_ack);
    ("policy/round-reno-1M", "ns/event", core_metric_policy_round_reno);
    ("policy/round-lanes-2k", "ns/event", core_metric_policy_round_lanes);
    ("pdes/domains1", "s", spec_wall (pdes_spec ~domains:1));
    ("pdes/domains4", "s", spec_wall (pdes_spec ~domains:4));
    ("pdes/many-flows-domains1", "s", spec_wall (pdes_mf_spec ~domains:1));
    ("pdes/many-flows-domains4", "s", spec_wall (pdes_mf_spec ~domains:4));
    ("snapshot/save-restore-1M", "ns/event", core_metric_snapshot_roundtrip);
  ]

(* Ratios of two timings, numerator first. Higher is better. *)
let ratios =
  [
    (* The wheel against the heap on one churn pattern. *)
    ("wheel/speedup-vs-heap", "eq/churn-1M", "wheel/churn-1M");
    (* Near-linear on a multicore box, about 1x on one core. *)
    ("pdes/dumbbell-scaling", "pdes/domains1", "pdes/domains4");
  ]

(* One run in refbench's result shape: a single "micro" workload whose
   every metric has one reading, its "median". The loops draw no random
   numbers, so the seed is fixed, and a loop that fails raises, so a
   written run never has a failure. Every metric is bounded at 0.25,
   the bound BENCHMARK.json gives its timings. *)
let micro_json readings =
  let open Report.Json in
  let entry (name, unit, _) =
    Obj
      [
        ("name", String name);
        ("unit", String unit);
        ("better", String (if unit = "ratio" then "higher" else "lower"));
        ("bound", Number 0.25);
      ]
  in
  let reading (name, unit, v) =
    Obj [ ("name", String name); ("unit", String unit); ("median", Number v) ]
  in
  Obj
    [
      ("seed", Number 0.);
      ("per_layer", List (List.map entry readings));
      ( "workloads",
        List
          [
            Obj
              [
                ("name", String "micro");
                ("attempted", Number 1.);
                ("failed", Number 0.);
                ("metrics", List (List.map reading readings));
              ];
          ] );
    ]

let micro () =
  section "Simulation-core timings (BENCH_core.json)";
  (* On a shared host one sample is at the mercy of load that comes and
     goes over seconds, so every timing runs once per pass, three passes
     in turn, and each reading is the fastest of its three. *)
  let passes =
    List.init 3 (fun _ -> List.map (fun (_, _, f) -> f ()) timings)
  in
  let fastest =
    List.fold_left (List.map2 Float.min) (List.hd passes) (List.tl passes)
  in
  let measured =
    List.map2 (fun (name, unit, _) v -> (name, unit, v)) timings fastest
  in
  let value name =
    List.find_map (fun (n, _, v) -> if n = name then Some v else None) measured
    |> Option.get
  in
  let readings =
    measured
    @ List.map
        (fun (name, num, den) -> (name, "ratio", value num /. value den))
        ratios
  in
  Report.Csv.write_string
    ~path:(Filename.concat results_dir "BENCH_core.json")
    (Report.Json.to_string (micro_json readings));
  print_string
    (Report.Table.render
       ~aligns:[ Report.Table.Left; Report.Table.Right; Report.Table.Left ]
       ~headers:[ "metric"; "reading"; "unit" ]
       ~rows:
         (List.map
            (fun (name, unit, v) -> [ name; Printf.sprintf "%.4g" v; unit ])
            readings)
       ())

let () =
  let rec check = function
    | [] -> ()
    | "micro" :: rest -> check rest
    | ("--jobs" | "-j") :: n :: rest
      when Option.fold ~none:false ~some:(fun n -> n >= 1)
             (int_of_string_opt n) ->
        check rest
    | arg :: _ ->
        Printf.eprintf "usage: main.exe [--jobs N] [micro] (got %S)\n" arg;
        exit 2
  in
  check (List.tl (Array.to_list Sys.argv));
  micro ()
