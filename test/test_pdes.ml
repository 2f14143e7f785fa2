(* Partitioned-vs-single-domain byte-identity: the same spec executed
   at --domains 1/2/4 (crossed with batch worker counts) must emit
   byte-identical artifacts — outcome JSON and every per-flow series
   CSV. Goldens pin two representative scenarios; a qcheck oracle
   sweeps random small dumbbell-of-dumbbells topologies. *)

module Spec = Core.Spec

let sec = Sim.Time.sec
let ms = Sim.Time.ms

let series_csv s =
  let path = Filename.temp_file "rss_pdes" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Report.Csv.write_series ~path ~name:"v" s;
      In_channel.with_open_text path In_channel.input_all)

(* Everything a run exports, as one string: scalar outcome JSON plus
   the four series of every flow. *)
let artifacts (o : Spec.outcome) =
  String.concat "\n---\n"
    (Report.Json.to_string (Spec.outcome_to_json o)
    :: List.concat_map
         (fun (r : Spec.flow_result) ->
           List.map series_csv
             [
               r.Spec.stalls_series;
               r.Spec.cwnd_series;
               r.Spec.ifq_series;
               r.Spec.throughput_series;
               r.Spec.srtt_series;
             ])
         o.Spec.results)

let run_artifacts spec = artifacts (Spec.run spec)

let bulk_flow ?label ?start_at ?bytes ~pair () =
  {
    Spec.default_flow with
    Spec.label;
    pair;
    start_at = Option.value ~default:Sim.Time.zero start_at;
    workload = Spec.Bulk { bytes };
  }

(* E5-class duplex path: the paper's pipe with 1% random loss and two
   staggered bulk transfers sharing it. *)
let duplex_spec ~domains =
  {
    Spec.default with
    Spec.name = "pdes-duplex";
    seed = 7;
    duration = sec 2;
    domains;
    topology =
      Spec.Duplex { Spec.default_duplex with Spec.loss_rate = 0.01 };
    flows =
      [
        bulk_flow ~label:"early" ~pair:0 ();
        bulk_flow ~label:"late" ~start_at:(ms 400) ~bytes:600_000 ~pair:0 ();
      ];
  }

let multi_topology =
  Spec.Multi_dumbbell
    {
      Spec.segments = 4;
      m_pairs = 2;
      m_access_rate = Sim.Units.mbps 100.;
      m_access_delay = ms 1;
      m_bottleneck_rate = Sim.Units.mbps 50.;
      m_bottleneck_delay = ms 10;
      core_rate = Sim.Units.mbps 200.;
      core_delay = ms 5;
      m_buffer_packets = 120;
      m_host_ifq_capacity = 100;
      m_red = None;
      cross_pairs = 3;
    }

(* Dumbbell-of-dumbbells: every segment loaded, three flows crossing
   the partition boundaries, one start staggered. *)
let multi_spec ~domains =
  let seg_flows =
    List.concat_map
      (fun s ->
        [
          bulk_flow ~label:(Printf.sprintf "seg%d-a" s) ~pair:(2 * s) ();
          bulk_flow
            ~label:(Printf.sprintf "seg%d-b" s)
            ~start_at:(ms (100 * (s + 1)))
            ~bytes:400_000
            ~pair:((2 * s) + 1)
            ();
        ])
      [ 0; 1; 2; 3 ]
  in
  let cross_flows =
    List.map
      (fun c -> bulk_flow ~label:(Printf.sprintf "cross%d" c) ~pair:(8 + c) ())
      [ 0; 1; 2 ]
  in
  {
    Spec.default with
    Spec.name = "pdes-multi";
    seed = 11;
    duration = sec 2;
    domains;
    topology = multi_topology;
    flows = seg_flows @ cross_flows;
  }

let test_duplex_identity () =
  let base = run_artifacts (duplex_spec ~domains:1) in
  Alcotest.(check string) "duplex: domains 2 = domains 1" base
    (run_artifacts (duplex_spec ~domains:2));
  (* Worker count beyond the partition count clamps, same artifacts. *)
  Alcotest.(check string) "duplex: domains 4 = domains 1" base
    (run_artifacts (duplex_spec ~domains:4))

let test_multi_identity () =
  let base = run_artifacts (multi_spec ~domains:1) in
  Alcotest.(check string) "multi: domains 2 = domains 1" base
    (run_artifacts (multi_spec ~domains:2));
  Alcotest.(check string) "multi: domains 4 = domains 1" base
    (run_artifacts (multi_spec ~domains:4))

(* Crossed with batch parallelism: a 4-domain partitioned run inside a
   2-worker Engine.Pool batch must match sequential single-domain runs
   cell for cell. *)
let test_domains_crossed_with_jobs () =
  let specs =
    [ duplex_spec ~domains:2; multi_spec ~domains:4; duplex_spec ~domains:1 ]
  in
  let sequential =
    List.map run_artifacts
      [ duplex_spec ~domains:1; multi_spec ~domains:1; duplex_spec ~domains:1 ]
  in
  let pooled =
    Engine.Pool.with_pool ~jobs:2 (fun pool ->
        List.map artifacts (Spec.run_batch ~pool specs))
  in
  Alcotest.(check (list string)) "batch over pool = sequential baselines"
    sequential pooled

(* --- qcheck oracle ----------------------------------------------------- *)

(* Random small dumbbell-of-dumbbells specs. Delays are ns-granular and
   mutually coprime-ish so event timestamps rarely tie across unrelated
   components — the regime where the (timestamp, partition, sequence)
   tiebreak of the partitioned engine provably matches the legacy
   single-heap seq order. *)
let gen_spec =
  QCheck2.Gen.(
    let* segments = int_range 2 3 in
    let* pairs = int_range 1 2 in
    let* cross_pairs = int_range 0 (segments - 1) in
    let* core_delay_us = int_range 900 4100 in
    let* bneck_delay_us = int_range 500 2500 in
    let* seed = int_range 1 10_000 in
    let* stagger_us = int_range 0 50_000 in
    let nflows = (segments * pairs) + cross_pairs in
    let flows =
      List.init nflows (fun i ->
          {
            Spec.default_flow with
            Spec.label = Some (Printf.sprintf "f%d" i);
            pair = i;
            start_at =
              (if i mod 3 = 2 then Sim.Time.us (stagger_us + 1) else Sim.Time.zero);
            workload =
              Spec.Bulk
                { bytes = (if i mod 2 = 0 then None else Some 120_000) };
          })
    in
    return
      {
        Spec.default with
        Spec.name = "pdes-qcheck";
        seed;
        duration = Sim.Time.ms 300;
        sample_period = Sim.Time.ms 50;
        topology =
          Spec.Multi_dumbbell
            {
              Spec.segments;
              m_pairs = pairs;
              m_access_rate = Sim.Units.mbps 100.;
              m_access_delay = Sim.Time.us 730;
              m_bottleneck_rate = Sim.Units.mbps 40.;
              m_bottleneck_delay = Sim.Time.us bneck_delay_us;
              core_rate = Sim.Units.mbps 150.;
              core_delay = Sim.Time.us core_delay_us;
              m_buffer_packets = 80;
              m_host_ifq_capacity = 60;
              m_red = None;
              cross_pairs;
            };
        flows;
      })

let print_spec (spec : Spec.t) =
  match spec.Spec.topology with
  | Spec.Multi_dumbbell m ->
      Printf.sprintf
        "seed=%d segments=%d pairs=%d cross=%d core_delay=%dns bneck_delay=%dns \
         starts=[%s]"
        spec.Spec.seed m.Spec.segments m.Spec.m_pairs m.Spec.cross_pairs
        (Sim.Time.to_ns_int m.Spec.core_delay)
        (Sim.Time.to_ns_int m.Spec.m_bottleneck_delay)
        (String.concat ";"
           (List.map
              (fun f -> string_of_int (Sim.Time.to_ns_int f.Spec.start_at))
              spec.Spec.flows))
  | _ -> "?"

let prop_partitioned_matches_single =
  QCheck2.Test.make ~count:8 ~print:print_spec
    ~name:"random multi-dumbbell: partitioned = single-domain" gen_spec
    (fun spec ->
      let single = run_artifacts { spec with Spec.domains = 1 } in
      let parted =
        run_artifacts
          { spec with Spec.domains = (match spec.Spec.topology with
                                      | Spec.Multi_dumbbell m -> m.Spec.segments
                                      | _ -> 2) }
      in
      String.equal single parted)

(* --- sharded many-flows ------------------------------------------------- *)

let mf_workload ?(flows = 4000) ?arrival_rate ?arrival_pareto_shape ?mean_size
    ?(size_pareto_shape = 1.3) () =
  Spec.Many_flows
    { flows; arrival_rate; arrival_pareto_shape; mean_size; size_pareto_shape }

(* The million-flow engine sharded one sub-population per segment: the
   shard layout is a function of the topology, so every domain count
   must replay the identical trajectory — including the interleaving of
   S wheels on one scheduler at domains = 1. *)
let mf_multi_spec ~domains =
  {
    Spec.default with
    Spec.name = "pdes-mf-multi";
    seed = 23;
    duration = sec 2;
    domains;
    topology = multi_topology;
    flows =
      [
        {
          Spec.default_flow with
          Spec.workload =
            mf_workload ~arrival_rate:3000. ~mean_size:40_000 ();
        };
      ];
  }

let mf_duplex_spec ~domains =
  {
    Spec.default with
    Spec.name = "pdes-mf-duplex";
    seed = 29;
    duration = sec 2;
    domains;
    topology = Spec.Duplex Spec.default_duplex;
    flows = [ { Spec.default_flow with Spec.workload = mf_workload () } ];
  }

let test_many_flows_identity () =
  let base = run_artifacts (mf_multi_spec ~domains:1) in
  Alcotest.(check string) "mf multi: domains 2 = domains 1" base
    (run_artifacts (mf_multi_spec ~domains:2));
  Alcotest.(check string) "mf multi: domains 4 = domains 1" base
    (run_artifacts (mf_multi_spec ~domains:4));
  let dbase = run_artifacts (mf_duplex_spec ~domains:1) in
  Alcotest.(check string) "mf duplex: domains 2 = domains 1" dbase
    (run_artifacts (mf_duplex_spec ~domains:2))

(* Random arrival/size/RED parameters, crossed with batch workers: the
   sharded engine must stay byte-identical at domains 1/2/4 whether the
   partitioned run executes alone or inside an Engine.Pool batch. *)
let print_mf_spec (spec : Spec.t) =
  match spec.Spec.flows with
  | [
   {
     Spec.workload =
       Spec.Many_flows { flows; arrival_rate; arrival_pareto_shape; mean_size; _ };
     _;
   };
  ] ->
      Printf.sprintf
        "seed=%d flows=%d arrival=%s pareto=%s mean_size=%s red=%b"
        spec.Spec.seed flows
        (match arrival_rate with
        | None -> "-"
        | Some r -> string_of_float r)
        (match arrival_pareto_shape with
        | None -> "-"
        | Some s -> string_of_float s)
        (match mean_size with
        | None -> "-"
        | Some s -> string_of_int s)
        (match spec.Spec.topology with
        | Spec.Multi_dumbbell t -> t.Spec.m_red <> None
        | _ -> false)
  | _ -> "?"

let gen_mf_spec =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* flows = int_range 200 2_000 in
    let* arrival_rate =
      oneof
        [
          return None;
          map (fun r -> Some (float_of_int r)) (int_range 500 5_000);
        ]
    in
    let* arrival_pareto_shape =
      if arrival_rate = None then return None
      else
        oneof
          [
            return None;
            map (fun s -> Some (1.05 +. (float_of_int s /. 100.))) (int_bound 100);
          ]
    in
    let* mean_size =
      oneof
        [ return None; map (fun s -> Some (s * 1_000)) (int_range 20 200) ]
    in
    let* red =
      oneof
        [
          return None;
          (let* max_p = int_range 2 20 in
           let* min_th = int_range 5 30 in
           return
             (Some
                {
                  Netsim.Queue_disc.default_red with
                  Netsim.Queue_disc.min_th = float_of_int min_th;
                  max_th = float_of_int (4 * min_th);
                  max_p = float_of_int max_p /. 100.;
                }));
        ]
    in
    let topology =
      match multi_topology with
      | Spec.Multi_dumbbell m -> Spec.Multi_dumbbell { m with Spec.m_red = red }
      | t -> t
    in
    return
      {
        Spec.default with
        Spec.name = "pdes-mf-qcheck";
        seed;
        duration = Sim.Time.ms 600;
        sample_period = Sim.Time.ms 100;
        topology;
        flows =
          [
            {
              Spec.default_flow with
              Spec.workload =
                mf_workload ~flows ?arrival_rate ?arrival_pareto_shape
                  ?mean_size ();
            };
          ];
      })

let prop_many_flows_matches_single =
  QCheck2.Test.make ~count:6 ~print:print_mf_spec
    ~name:"random many_flows: sharded partitioned = single-domain, × jobs"
    gen_mf_spec
    (fun spec ->
      let single = run_artifacts { spec with Spec.domains = 1 } in
      let pooled =
        Engine.Pool.with_pool ~jobs:2 (fun pool ->
            List.map artifacts
              (Spec.run_batch ~pool
                 [
                   { spec with Spec.domains = 2 };
                   { spec with Spec.domains = 4 };
                 ]))
      in
      List.for_all (String.equal single) pooled)

(* --- validation gates --------------------------------------------------- *)

let expect_invalid what spec =
  match Spec.validate spec with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.failf "%s: expected Invalid_argument" what

let test_domains_validation () =
  expect_invalid "domains 0" { Spec.default with Spec.domains = 0 };
  expect_invalid "plain dumbbell has no cut"
    {
      Spec.default with
      Spec.domains = 2;
      topology =
        Spec.Dumbbell
          {
            Spec.pairs = 2;
            access_rate = Sim.Units.mbps 100.;
            access_delay = ms 1;
            bottleneck_rate = Sim.Units.mbps 100.;
            bottleneck_delay = ms 28;
            buffer_packets = 250;
            host_ifq_capacity = 100;
            red = None;
          };
      flows = [ bulk_flow ~pair:0 () ];
    };
  expect_invalid "zero-delay duplex has zero lookahead"
    {
      Spec.default with
      Spec.domains = 2;
      topology =
        Spec.Duplex
          { Spec.default_duplex with Spec.one_way_delay = Sim.Time.zero };
    };
  expect_invalid "record_trace is single-domain only"
    { Spec.default with Spec.domains = 2; record_trace = true };
  (* many_flows is partitionable since the sharded engine landed: a
     duplex spec at domains = 2 must validate... *)
  Spec.validate
    {
      Spec.default with
      Spec.domains = 2;
      flows =
        [
          {
            Spec.default_flow with
            Spec.workload =
              Spec.Many_flows
                {
                  flows = 100;
                  arrival_rate = None;
                  arrival_pareto_shape = None;
                  mean_size = None;
                  size_pareto_shape = 1.2;
                };
          };
        ];
    };
  (* ...while short_flows stays single-domain (receiver-spawning), and a
     population smaller than the per-segment shard count is refused. *)
  expect_invalid "short_flows is single-domain only"
    {
      Spec.default with
      Spec.domains = 2;
      flows =
        [
          {
            Spec.default_flow with
            Spec.workload =
              Spec.Short_flows
                {
                  arrival_rate = 10.;
                  mean_size = 20_000;
                  pareto_shape = 1.2;
                  stop_at = None;
                };
          };
        ];
    };
  expect_invalid "fewer many_flows flows than segments"
    {
      (multi_spec ~domains:1) with
      Spec.flows =
        [
          {
            Spec.default_flow with
            Spec.workload =
              Spec.Many_flows
                {
                  flows = 2;
                  arrival_rate = None;
                  arrival_pareto_shape = None;
                  mean_size = None;
                  size_pareto_shape = 1.2;
                };
          };
        ];
    };
  (* The multi topology itself is fine at domains = 1. *)
  Spec.validate { (multi_spec ~domains:1) with Spec.record_trace = true };
  (* And checkpointing is refused on a partitioned run. *)
  let b = Spec.build (duplex_spec ~domains:2) in
  match
    Spec.execute
      ~checkpoint:
        {
          Spec.snapshot_path = Filename.temp_file "pdes" ".snap";
          interval = ms 100;
          should_stop = (fun () -> false);
        }
      b
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "checkpoint with domains > 1 must be rejected"

let test_json_round_trip () =
  let spec = multi_spec ~domains:4 in
  let text = Report.Json.to_string (Spec.to_json spec) in
  match Report.Json.of_string text with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok json -> (
      match Spec.of_json json with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok spec' ->
          Alcotest.(check bool) "dumbbell_of_dumbbells + domains round-trip"
            true (spec' = spec))

(* E13's disk-paced source on the paper path: a chunk is due at 3 s,
   which is also a sample instant. Samples are coordinator breaks at
   every domain count, so each series reads the model after every event
   before 3 s and before any at it, whether one partition runs or two. *)
let chunked_spec ~domains =
  {
    Spec.default with
    Spec.seed = 3;
    duration = sec 4;
    sample_period = ms 250;
    record_series = true;
    domains;
    topology = Spec.Duplex Spec.default_duplex;
    flows =
      [
        {
          Spec.default_flow with
          Spec.slow_start = "standard";
          slow_start_restart = false;
          workload =
            Spec.Chunked
              { chunk_bytes = 6_000_000; interval = sec 3; chunks = None };
        };
      ];
  }

let test_chunked_sample_grid () =
  let base = run_artifacts (chunked_spec ~domains:1) in
  Alcotest.(check string) "chunked: domains 2 = domains 1" base
    (run_artifacts (chunked_spec ~domains:2));
  Alcotest.(check string) "chunked: domains 4 = domains 1" base
    (run_artifacts (chunked_spec ~domains:4))

let suite =
  [
    Alcotest.test_case "duplex artifacts identical at any domains" `Quick
      test_duplex_identity;
    Alcotest.test_case "multi-dumbbell artifacts identical at any domains"
      `Quick test_multi_identity;
    Alcotest.test_case "domains crossed with --jobs" `Quick
      test_domains_crossed_with_jobs;
    QCheck_alcotest.to_alcotest prop_partitioned_matches_single;
    Alcotest.test_case "many-flows artifacts identical at any domains" `Quick
      test_many_flows_identity;
    QCheck_alcotest.to_alcotest prop_many_flows_matches_single;
    Alcotest.test_case "domains validation gates" `Quick
      test_domains_validation;
    Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
    Alcotest.test_case
      "chunked flow on the sample grid: artifacts identical at any domains"
      `Quick test_chunked_sample_grid;
  ]
