(* Core.Spec: JSON round-trips, fixed-seed goldens, worker-count
   determinism and build-time validation. *)

module Spec = Core.Spec
module Fm = Netsim.Fault_model

let sec = Sim.Time.sec
let ms = Sim.Time.ms

(* --- round-trip -------------------------------------------------------- *)

let round_trip spec =
  let text = Report.Json.to_string (Spec.to_json spec) in
  match Report.Json.of_string text with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok json -> (
      match Spec.of_json json with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok spec' -> spec')

let check_round_trip name spec =
  Alcotest.(check bool) name true (round_trip spec = spec)

let test_round_trip_default () = check_round_trip "default" Spec.default

let test_round_trip_62bit_seed () =
  (* derive_seed yields full-width native ints (possibly negative); the
     decimal-string encoding must carry them exactly. *)
  let seed = Sim.Rng.derive_seed ~root:0x1234_5678 ~stream:42 in
  Alcotest.(check bool) "seed exceeds double precision" true
    (abs seed > 1 lsl 53);
  check_round_trip "62-bit seed" { Spec.default with Spec.seed }

let full_fault_profile =
  {
    Fm.ge =
      Some { Fm.p_gb = 0.002; p_bg = 0.25; loss_good = 0.001; loss_bad = 0.5 };
    reorder = Some { Fm.prob = 0.01; max_extra = ms 12 };
    duplicate = Some { Fm.prob = 0.005; max_extra = ms 3 };
    schedule =
      [
        Fm.Outage { start = sec 2; stop = Sim.Time.add (sec 2) (ms 400) };
        Fm.Delay_step { at = sec 4; extra = ms 25 };
      ];
  }

let test_round_trip_trace_fields () =
  check_round_trip "trace instrumentation options"
    { Spec.default with Spec.record_trace = true; trace_capacity = 1024 };
  (* Specs written before the trace fields existed must still parse,
     with tracing off. *)
  let json =
    Report.Json.Obj [ ("name", Report.Json.String "legacy") ]
  in
  match Spec.of_json json with
  | Error e -> Alcotest.failf "legacy spec rejected: %s" e
  | Ok spec ->
      Alcotest.(check bool) "record_trace defaults off" false
        spec.Spec.record_trace;
      Alcotest.(check int) "trace_capacity defaults" 65536
        spec.Spec.trace_capacity

(* A traced run must observe without perturbing: identical flow
   results to the untraced run, trace/metrics present, ring and
   registry samples deterministic across repeats. *)
let test_traced_run_observes_only () =
  let spec =
    {
      Spec.default with
      Spec.name = "traced";
      duration = sec 2;
      record_trace = true;
      trace_capacity = 4096;
    }
  in
  let traced = Spec.run spec in
  let plain = Spec.run { spec with Spec.record_trace = false } in
  Alcotest.(check bool) "plain run has no trace" true (plain.Spec.trace = None);
  Alcotest.(check bool) "plain run has no metrics" true
    (plain.Spec.metrics = None);
  let scalars o =
    List.map
      (fun (r : Spec.flow_result) ->
        ( r.Spec.label,
          r.Spec.goodput_mbps,
          r.Spec.send_stalls,
          r.Spec.retransmits,
          r.Spec.timeouts,
          r.Spec.final_cwnd_segments ))
      o.Spec.results
  in
  Alcotest.(check bool) "tracing does not perturb results" true
    (scalars traced = scalars plain);
  let tr =
    match traced.Spec.trace with
    | Some tr -> tr
    | None -> Alcotest.fail "traced run lost its ring"
  in
  Alcotest.(check bool) "ring saw events" true (Trace.total tr > 0);
  let m =
    match traced.Spec.metrics with
    | Some m -> m
    | None -> Alcotest.fail "traced run lost its metrics"
  in
  (* conn/* for the flow, link/{forward,reverse}/*, host/{0,1}/*. *)
  Alcotest.(check bool) "registry carries conn metrics" true
    (List.exists
       (fun n -> String.length n > 5 && String.sub n 0 5 = "conn/")
       m.Spec.metric_names);
  Alcotest.(check bool) "registry carries link metrics" true
    (List.mem "link/forward/delivered" m.Spec.metric_names);
  Alcotest.(check bool) "registry carries host metrics" true
    (List.mem "host/0/ifq_occupancy" m.Spec.metric_names);
  Alcotest.(check int) "one sample per period (2s / 250ms)" 8
    (List.length m.Spec.samples);
  List.iter
    (fun (_, values) ->
      Alcotest.(check int) "sample width = names width"
        (List.length m.Spec.metric_names)
        (Array.length values))
    m.Spec.samples;
  (* Determinism: a repeat run yields the identical ring and samples. *)
  let traced' = Spec.run spec in
  let dump o =
    match (o.Spec.trace, o.Spec.metrics) with
    | Some tr, Some m ->
        (Report.Trace_event.to_csv tr, m.Spec.metric_names, m.Spec.samples)
    | _ -> Alcotest.fail "repeat run lost instrumentation"
  in
  Alcotest.(check bool) "byte-identical across repeats" true
    (dump traced = dump traced')

let test_round_trip_faults () =
  check_round_trip "fault profiles"
    {
      Spec.default with
      Spec.faults =
        { Spec.forward = full_fault_profile; reverse = full_fault_profile };
    }

let test_round_trip_workloads () =
  let flow workload = { Spec.default_flow with Spec.workload } in
  check_round_trip "every workload kind"
    {
      Spec.default with
      Spec.flows =
        [
          flow (Spec.Bulk { bytes = Some 1_000_000 });
          flow
            (Spec.Chunked
               { chunk_bytes = 65536; interval = ms 50; chunks = Some 20 });
          flow
            (Spec.Cbr
               {
                 rate = Sim.Units.mbps 10.;
                 packet_bytes = 1000;
                 stop_at = Some (sec 20);
               });
          flow
            (Spec.On_off
               {
                 peak_rate = Sim.Units.mbps 40.;
                 mean_on = ms 500;
                 mean_off = ms 1500;
                 packet_bytes = 1000;
               });
          flow
            (Spec.Short_flows
               {
                 arrival_rate = 10.;
                 mean_size = 30_720;
                 pareto_shape = 1.2;
                 stop_at = None;
               });
        ];
    }

let test_round_trip_dumbbell_red () =
  check_round_trip "dumbbell with RED and flow overrides"
    {
      Spec.default with
      Spec.topology =
        Spec.Dumbbell
          {
            Spec.pairs = 3;
            access_rate = Sim.Units.mbps 1000.;
            access_delay = ms 1;
            bottleneck_rate = Sim.Units.mbps 100.;
            bottleneck_delay = ms 28;
            buffer_packets = 250;
            host_ifq_capacity = 100;
            red =
              Some
                {
                  Netsim.Queue_disc.min_th = 50.;
                  max_th = 150.;
                  max_p = 0.1;
                  weight = 0.002;
                };
          };
      flows =
        [
          {
            Spec.default_flow with
            Spec.label = Some "tuned";
            pair = 2;
            start_at = ms 250;
            slow_start = "restricted-adaptive+cubic";
            restricted =
              Some
                {
                  Tcp.Slow_start.gains = Control.Pid.pid ~kp:0.5 ~ti:0.1 ~td:0.05;
                  setpoint_fraction = 0.8;
                  max_step_segments = 4.;
                  sample_min_interval = ms 2;
                };
            shared_rss = true;
            local_congestion = Tcp.Local_congestion.Cwr;
            delayed_ack = None;
            use_sack = false;
            pacing = true;
            slow_start_restart = false;
            max_rto = Some (sec 2);
          };
        ];
    }

let test_template_parses_and_builds () =
  match Report.Json.of_string (Spec.template ()) with
  | Error e -> Alcotest.failf "template is not valid JSON: %s" e
  | Ok json -> (
      match Spec.of_json json with
      | Error e -> Alcotest.failf "template rejected: %s" e
      | Ok spec ->
          ignore (Spec.build spec);
          Alcotest.(check bool) "template has several flows" true
            (List.length spec.Spec.flows >= 2))

(* Every key and case tag the field table accepts appears in the
   template as a whole word, so the template documents the whole table;
   a duration counts by either spelling. This is Codec.names' caller. *)
let test_template_names_every_key () =
  let template = Spec.template () in
  let word_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let whole_word w =
    let n = String.length w and h = String.length template in
    let rec at i =
      i + n <= h
      && (String.sub template i n = w
          && (i = 0 || not (word_char template.[i - 1]))
          && (i + n = h || not (word_char template.[i + n]))
         || at (i + 1))
    in
    at 0
  in
  let missing =
    List.filter
      (fun spellings -> not (List.exists whole_word spellings))
      (Core.Codec.names Core.Codec.spec)
  in
  Alcotest.(check (list string)) "keys the template does not name" []
    (List.map (String.concat " or ") missing)

let test_of_json_errors () =
  let reject text fragment =
    let json =
      match Report.Json.of_string text with
      | Ok j -> j
      | Error e -> Alcotest.failf "test input is not JSON: %s" e
    in
    match Spec.of_json json with
    | Ok _ -> Alcotest.failf "accepted %s" text
    | Error e ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
          at 0
        in
        let found = contains e fragment in
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" e fragment)
          true found
  in
  reject {|{"seed": 12}|} "seed";
  reject {|{"topology": {"kind": "mesh"}}|} "topology";
  reject {|{"flows": [{"workload": {"kind": "torrent"}}]}|} "workload";
  (* Each input below was accepted, or refused for the wrong value, by
     the decoder that ignored unknown keys and truncated numbers. *)
  reject {|{"duraton_s": 0.01}|} "duraton_s";
  reject {|{"flows": [{"slow_strat": "restricted"}]}|} "flows[0].slow_strat";
  reject {|{"topology": {"kind": "dumbbell", "core_rate_mbps": 400}}|}
    "topology.core_rate_mbps";
  reject {|{"faults": {"forwrd": {"ge": null}}}|} "faults.forwrd";
  reject {|{"flows": [{"workload": {"kind": "bulk", "byts": 1000}}]}|}
    "flows[0].workload.byts";
  reject {|{"domains": 1.9}|} "domains";
  reject {|{"flows": [{"pair": 0.5}]}|} "flows[0].pair";
  reject {|{"topology": {"ifq_capacity": 100.7}}|} "topology.ifq_capacity";
  reject
    {|{"flows": [{"workload": {"kind": "chunked", "chunk_bytes": 1000.9, "interval_s": 0.1}}]}|}
    "flows[0].workload.chunk_bytes";
  reject {|{"duration_ns": 1000000000, "duration_s": 1}|} "duration_s";
  reject {|{"trace_capacity": 1e300}|} "trace_capacity: 1e+300";
  reject {|{"duration_s": 1e300}|} "duration_s: 1e+300";
  reject {|{"flows": [{"delayed_ack_s": 1e30}]}|} "flows[0].delayed_ack_s";
  reject {|{"seed": "0x10"}|} "seed";
  reject {|{"seed": "1_000"}|} "seed"

(* Keys that start with '_' are free at every level, and a null duration
   means "none" under either spelling. *)
let test_of_json_free_keys_and_null () =
  let text =
    {|{"_doc": 1, "topology": {"_doc": 2},
 "flows": [{"_doc": 3, "delayed_ack_s": null,
            "workload": {"_doc": 4, "kind": "cbr", "rate_mbps": 1, "stop_at_s": null}}],
 "faults": {"_doc": 5, "forward": {"_doc": 6, "schedule": [{"_doc": 7, "kind": "outage", "start_s": 1, "stop_s": 2}]}}}|}
  in
  match Result.bind (Report.Json.of_string text) Spec.of_json with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok spec ->
      let f = List.hd spec.Spec.flows in
      Alcotest.(check bool) "delayed_ack_s: null is no delayed ACK" true
        (f.Spec.delayed_ack = None);
      Alcotest.(check bool) "stop_at_s: null is no stop" true
        (match f.Spec.workload with
        | Spec.Cbr { stop_at; _ } -> stop_at = None
        | _ -> false)

(* --- fixed-seed goldens (from scratch run, full precision) ------------- *)

let golden_duplex_spec =
  {
    Spec.default with
    Spec.name = "golden-duplex";
    seed = 7;
    duration = sec 5;
    record_series = false;
    flows =
      [
        { Spec.default_flow with Spec.label = Some "rss";
          slow_start = "restricted" };
      ];
  }

let golden_dumbbell_spec =
  {
    Spec.default with
    Spec.name = "golden-dumbbell";
    seed = 9;
    duration = sec 5;
    record_series = false;
    topology =
      Spec.Dumbbell
        {
          Spec.pairs = 2;
          access_rate = Sim.Units.mbps 1000.;
          access_delay = ms 1;
          bottleneck_rate = Sim.Units.mbps 100.;
          bottleneck_delay = ms 28;
          buffer_packets = 250;
          host_ifq_capacity = 100;
          red = None;
        };
    flows =
      [
        { Spec.default_flow with Spec.label = Some "rss";
          slow_start = "restricted" };
        { Spec.default_flow with Spec.label = Some "std"; pair = 1;
          start_at = ms 500 };
      ];
    faults =
      {
        Spec.forward =
          {
            Fm.passthrough with
            Fm.ge =
              Some { Fm.p_gb = 0.002; p_bg = 0.2; loss_good = 0.; loss_bad = 0.3 };
          };
        reverse = Fm.passthrough;
      };
  }

let check_flow ~label ~goodput ~stalls ~cong ~retx ~timeouts ~cwnd
    (r : Spec.flow_result) =
  Alcotest.(check string) (label ^ " label") label r.Spec.label;
  Alcotest.(check (float 1e-6)) (label ^ " goodput") goodput r.Spec.goodput_mbps;
  Alcotest.(check int) (label ^ " stalls") stalls r.Spec.send_stalls;
  Alcotest.(check int) (label ^ " cong signals") cong r.Spec.congestion_signals;
  Alcotest.(check int) (label ^ " retx") retx r.Spec.retransmits;
  Alcotest.(check int) (label ^ " timeouts") timeouts r.Spec.timeouts;
  Alcotest.(check (float 1e-6)) (label ^ " cwnd") cwnd
    r.Spec.final_cwnd_segments

let test_golden_duplex () =
  let o = Spec.run golden_duplex_spec in
  (match o.Spec.results with
  | [ r ] ->
      check_flow ~label:"rss" ~goodput:83.682528 ~stalls:0 ~cong:0 ~retx:0
        ~timeouts:0 ~cwnd:597.00891889230695 r;
      Alcotest.(check (float 1e-6)) "mean ifq" 68.016001919994352
        r.Spec.mean_ifq;
      Alcotest.(check (float 1e-6)) "peak ifq" 96. r.Spec.peak_ifq
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs));
  Alcotest.(check (float 1e-9)) "jain" 1. o.Spec.path.Spec.jain_index;
  Alcotest.(check int) "no router drops on a duplex" 0
    o.Spec.path.Spec.router_drops

let test_golden_dumbbell () =
  let o = Spec.run golden_dumbbell_spec in
  (match o.Spec.results with
  | [ rss; std ] ->
      check_flow ~label:"rss" ~goodput:8.017152 ~stalls:0 ~cong:5 ~retx:6
        ~timeouts:0 ~cwnd:13.54290865013656 rss;
      check_flow ~label:"std" ~goodput:10.832032 ~stalls:0 ~cong:3 ~retx:5
        ~timeouts:0 ~cwnd:41.908648991806743 std
  | rs -> Alcotest.failf "expected 2 results, got %d" (List.length rs));
  Alcotest.(check (float 1e-6)) "aggregate" 18.849184
    o.Spec.path.Spec.aggregate_goodput_mbps;
  Alcotest.(check (float 1e-9)) "jain" 0.97818497816417027
    o.Spec.path.Spec.jain_index

(* --- a dumbbell is the one-segment chain -------------------------------- *)

(* The dumbbell_of_dumbbells twin of a dumbbell spec: one segment, no
   cross pairs, the dumbbell's own per-segment fields. The core rate and
   delay are arbitrary, since a one-segment chain has no core link. *)
let one_segment_twin (spec : Spec.t) =
  match spec.Spec.topology with
  | Spec.Dumbbell d ->
      {
        spec with
        Spec.topology =
          Spec.Multi_dumbbell
            {
              Spec.segments = 1;
              m_pairs = d.Spec.pairs;
              m_access_rate = d.Spec.access_rate;
              m_access_delay = d.Spec.access_delay;
              m_bottleneck_rate = d.Spec.bottleneck_rate;
              m_bottleneck_delay = d.Spec.bottleneck_delay;
              core_rate = Sim.Units.mbps 7.;
              core_delay = ms 3;
              m_buffer_packets = d.Spec.buffer_packets;
              m_host_ifq_capacity = d.Spec.host_ifq_capacity;
              m_red = d.Spec.red;
              cross_pairs = 0;
            };
      }
  | Spec.Duplex _ | Spec.Multi_dumbbell _ ->
      Alcotest.fail "one_segment_twin: not a dumbbell"

(* Everything a run reports: the outcome JSON, each flow's series, the
   registry samples and the trace ring. *)
let observed (o : Spec.outcome) =
  ( Report.Json.to_string (Spec.outcome_to_json o),
    List.map
      (fun (r : Spec.flow_result) ->
        List.map
          (fun s -> (Sim.Stats.Series.times s, Sim.Stats.Series.values s))
          [
            r.Spec.stalls_series; r.Spec.cwnd_series; r.Spec.ifq_series;
            r.Spec.throughput_series; r.Spec.srtt_series;
          ])
      o.Spec.results,
    Option.map (fun m -> (m.Spec.metric_names, m.Spec.samples)) o.Spec.metrics,
    Option.map Report.Trace_event.to_csv o.Spec.trace )

let mf_dumbbell_red_spec =
  {
    Spec.default with
    Spec.name = "mf-dumbbell-red";
    seed = 5;
    duration = sec 2;
    topology =
      Spec.Dumbbell
        {
          Spec.pairs = 1;
          access_rate = Sim.Units.mbps 1000.;
          access_delay = ms 1;
          bottleneck_rate = Sim.Units.mbps 100.;
          bottleneck_delay = ms 28;
          buffer_packets = 250;
          host_ifq_capacity = 100;
          red = Some Netsim.Queue_disc.default_red;
        };
    flows =
      [
        {
          Spec.default_flow with
          Spec.label = Some "crowd";
          workload =
            Spec.Many_flows
              {
                flows = 500;
                arrival_rate = None;
                arrival_pareto_shape = None;
                mean_size = None;
                size_pareto_shape = 1.2;
              };
        };
      ];
  }

(* Segment 0 of a one-segment chain has the dumbbell's node ids and
   construction order, so a dumbbell and its twin report the same run
   byte for byte: a faulted two-pair golden, the traced example and a
   many_flows crowd behind RED. *)
let test_dumbbell_is_one_segment_chain () =
  let mixed =
    let text =
      In_channel.with_open_text "../examples/dumbbell_mixed.json"
        In_channel.input_all
    in
    match Result.bind (Report.Json.of_string text) Spec.of_json with
    | Ok spec -> { spec with Spec.record_trace = true }
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (spec : Spec.t) ->
      let dumbbell = observed (Spec.run spec) in
      let chain = observed (Spec.run (one_segment_twin spec)) in
      Alcotest.(check bool) (spec.Spec.name ^ ": identical runs") true
        (dumbbell = chain))
    [ golden_dumbbell_spec; mixed; mf_dumbbell_red_spec ]

(* --- determinism across worker counts ---------------------------------- *)

let scalars (o : Spec.outcome) =
  ( List.map
      (fun (r : Spec.flow_result) ->
        ( r.Spec.label,
          r.Spec.goodput_mbps,
          r.Spec.send_stalls,
          r.Spec.retransmits,
          r.Spec.timeouts,
          r.Spec.final_cwnd_segments ))
      o.Spec.results,
    o.Spec.path )

let test_jobs_determinism () =
  let specs =
    [
      golden_duplex_spec;
      golden_dumbbell_spec;
      { golden_dumbbell_spec with Spec.name = "golden-dumbbell-17"; seed = 17 };
    ]
  in
  let sequential = List.map scalars (Spec.run_batch specs) in
  let pooled =
    Engine.Pool.with_pool ~jobs:4 (fun pool ->
        List.map scalars (Spec.run_batch ~pool specs))
  in
  Alcotest.(check bool) "pool of 4 matches sequential" true
    (sequential = pooled)

(* --- validation -------------------------------------------------------- *)

(* Every case fails at validation, before build instantiates anything;
   with [says], under that exact message. *)
let test_validation () =
  let rejects ?says name spec =
    match Spec.validate spec with
    | exception Invalid_argument e ->
        Option.iter (fun says -> Alcotest.(check string) name says e) says
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  rejects "non-positive duration"
    { Spec.default with Spec.duration = Sim.Time.zero };
  rejects "zero ifq"
    {
      Spec.default with
      Spec.topology =
        Spec.Duplex { Spec.default_duplex with Spec.ifq_capacity = 0 };
    };
  rejects "loss rate above 1"
    {
      Spec.default with
      Spec.topology =
        Spec.Duplex { Spec.default_duplex with Spec.loss_rate = 1.5 };
    };
  rejects "negative start time"
    {
      Spec.default with
      Spec.flows =
        [ { Spec.default_flow with Spec.start_at = Sim.Time.of_sec (-1.) } ];
    };
  rejects "unknown policy"
    {
      Spec.default with
      Spec.flows = [ { Spec.default_flow with Spec.slow_start = "bogus" } ];
    };
  rejects "pair out of range"
    { Spec.default with Spec.flows = [ { Spec.default_flow with Spec.pair = 1 } ] };
  rejects "no flows" { Spec.default with Spec.flows = [] };
  rejects "bad chunk workload"
    {
      Spec.default with
      Spec.flows =
        [
          {
            Spec.default_flow with
            Spec.workload =
              Spec.Chunked
                { chunk_bytes = 0; interval = ms 50; chunks = None };
          };
        ];
    };
  (* A zero max_rto clamps every RTO to 0 and the run never ends; a
     negative ACK delay would silently run as 0. *)
  let flow f = { Spec.default with Spec.flows = [ f ] } in
  rejects "zero max_rto" ~says:"Spec.build: flow 0: max_rto 0s must be positive"
    (flow { Spec.default_flow with Spec.max_rto = Some Sim.Time.zero });
  rejects "negative max_rto"
    ~says:"Spec.build: flow 0: max_rto -1s must be positive"
    (flow { Spec.default_flow with Spec.max_rto = Some (sec (-1)) });
  rejects "negative delayed_ack"
    ~says:"Spec.build: flow 0: delayed_ack -1s must be non-negative"
    (flow { Spec.default_flow with Spec.delayed_ack = Some (sec (-1)) });
  (* Fault profiles, in either direction, fail here and not inside
     Fault_model.create. *)
  let faulted ?(forward = Fm.passthrough) ?(reverse = Fm.passthrough) () =
    { Spec.default with Spec.faults = { Spec.forward; reverse } }
  in
  rejects "ge.p_gb above 1"
    ~says:
      "Spec.build: faults forward: Fault_model: ge.p_gb probability 2 \
       outside [0, 1]"
    (faulted
       ~forward:
         {
           Fm.passthrough with
           Fm.ge =
             Some { Fm.p_gb = 2.; p_bg = 0.2; loss_good = 0.; loss_bad = 0.3 };
         }
       ());
  rejects "reorder prob above 1"
    ~says:
      "Spec.build: faults reverse: Fault_model: reorder probability 1.5 \
       outside [0, 1]"
    (faulted
       ~reverse:
         {
           Fm.passthrough with
           Fm.reorder = Some { Fm.prob = 1.5; max_extra = ms 5 };
         }
       ());
  rejects "outage stops before it starts"
    ~says:"Spec.build: faults forward: Fault_model: outage stops before it starts"
    (faulted
       ~forward:
         {
           Fm.passthrough with
           Fm.schedule = [ Fm.Outage { start = sec 2; stop = sec 1 } ];
         }
       ());
  (* RED: weight 0 switches it off, a zero-width curve force-drops
     every packet. One check serves both dumbbell kinds, one the duplex
     interface queues. *)
  let red ?(min_th = 5.) ?(max_th = 15.) ?(max_p = 0.1) ?(weight = 0.002) ()
      =
    { Netsim.Queue_disc.min_th; max_th; max_p; weight }
  in
  let red_dumbbell r =
    match golden_dumbbell_spec.Spec.topology with
    | Spec.Dumbbell d ->
        {
          golden_dumbbell_spec with
          Spec.topology = Spec.Dumbbell { d with Spec.red = Some r };
        }
    | _ -> Alcotest.fail "golden_dumbbell_spec: not a dumbbell"
  in
  let red_duplex r =
    {
      Spec.default with
      Spec.topology =
        Spec.Duplex { Spec.default_duplex with Spec.ifq_red_ecn = Some r };
    }
  in
  rejects "red weight 0" ~says:"Spec.build: red weight 0 must be within (0, 1]"
    (red_dumbbell (red ~weight:0. ()));
  rejects "red weight above 1"
    ~says:"Spec.build: red weight 1.5 must be within (0, 1]"
    (red_dumbbell (red ~weight:1.5 ()));
  rejects "red zero-width curve"
    ~says:"Spec.build: red max_th 0 must exceed min_th 0"
    (red_dumbbell (red ~min_th:0. ~max_th:0. ()));
  rejects "red min_th above max_th"
    ~says:"Spec.build: red max_th 5 must exceed min_th 15"
    (red_dumbbell (red ~min_th:15. ~max_th:5. ()));
  rejects "red negative min_th"
    ~says:"Spec.build: red min_th -1 must be >= 0"
    (red_dumbbell (red ~min_th:(-1.) ()));
  rejects "red negative max_p" ~says:"Spec.build: red max_p -1 must be within (0, 1]"
    (red_dumbbell (red ~max_p:(-1.) ()));
  rejects "chain red weight 0"
    ~says:"Spec.build: red weight 0 must be within (0, 1]"
    (one_segment_twin (red_dumbbell (red ~weight:0. ())));
  rejects "ifq_red_ecn max_p above 1"
    ~says:"Spec.build: ifq_red_ecn max_p 1.5 must be within (0, 1]"
    (red_duplex (red ~max_p:1.5 ()));
  (* The edges that mean something pass: min_th 0, max_p 1, weight 1. *)
  let edge = red ~min_th:0. ~max_p:1. ~weight:1. () in
  Spec.validate (red_dumbbell edge);
  Spec.validate (one_segment_twin (red_dumbbell edge));
  Spec.validate (red_duplex edge)

(* A many_flows population shares one controller across its rows, so
   validation refuses an avoidance with per-connection state by name,
   whichever field picked it; packet-level flows keep every choice. *)
let test_many_flows_cong_avoid () =
  let many =
    Spec.Many_flows
      {
        flows = 100;
        arrival_rate = None;
        arrival_pareto_shape = None;
        mean_size = None;
        size_pareto_shape = 1.2;
      }
  in
  let spec f = { Spec.default with Spec.flows = [ f ] } in
  let mf = { Spec.default_flow with Spec.workload = many } in
  let rejects what avoidance f =
    match Spec.validate (spec f) with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument e ->
        Alcotest.(check string) what
          (Printf.sprintf
             "Spec.build: flow 0: many_flows: congestion avoidance %S keeps \
              per-connection state, but every many-flows row shares one \
              controller (use reno, relentless or small-rtt)"
             avoidance)
          e
  in
  rejects "slow_start standard+cubic" "cubic"
    { mf with Spec.slow_start = "standard+cubic" };
  rejects "slow_start standard+vegas" "vegas"
    { mf with Spec.slow_start = "standard+vegas" };
  rejects "policy hystart-cubic" "cubic"
    { mf with Spec.policy = Some "hystart-cubic" };
  rejects "policy fast" "fast" { mf with Spec.policy = Some "fast" };
  List.iter
    (fun p -> Spec.validate (spec { mf with Spec.policy = Some p }))
    [ "standard"; "relentless"; "small-rtt" ];
  Spec.validate
    (spec { Spec.default_flow with Spec.slow_start = "standard+cubic" });
  Spec.validate
    (spec { Spec.default_flow with Spec.policy = Some "hystart-cubic" })

(* Bulk and Chunked flows share one TCP-result collector whose driver
   dispatch reports a descriptive error (not an assert) on mismatch;
   pin the legitimate arms: both kinds collect side by side. *)
let test_mixed_tcp_collect () =
  let o =
    Spec.run
      {
        Spec.default with
        Spec.name = "mixed-collect";
        seed = 13;
        duration = sec 2;
        flows =
          [
            {
              Spec.default_flow with
              Spec.label = Some "bulk";
              workload = Spec.Bulk { bytes = Some 400_000 };
            };
            {
              Spec.default_flow with
              Spec.label = Some "chunked";
              workload =
                Spec.Chunked
                  { chunk_bytes = 32_768; interval = ms 40; chunks = Some 10 };
            };
          ];
      }
  in
  let labels = List.map (fun (r : Spec.flow_result) -> r.Spec.label) o.results in
  Alcotest.(check (list string)) "both flows collected" [ "bulk"; "chunked" ]
    labels;
  List.iter
    (fun (r : Spec.flow_result) ->
      Alcotest.(check bool)
        (r.Spec.label ^ " moved data") true
        (r.Spec.goodput_mbps > 0.))
    o.results

(* A ring needs room for one record: validation names the field rather
   than letting Trace.create raise from inside build. *)
let test_trace_capacity_validated () =
  let traced capacity =
    { Spec.default with Spec.record_trace = true; trace_capacity = capacity }
  in
  List.iter
    (fun capacity ->
      match Spec.validate (traced capacity) with
      | () -> Alcotest.failf "trace_capacity %d accepted" capacity
      | exception Invalid_argument e ->
          Alcotest.(check string) "named error"
            (Printf.sprintf "Spec.build: trace_capacity %d must be >= 1"
               capacity)
            e)
    [ 0; -1 ];
  Spec.validate (traced 1)

(* Right host i has id 100 + i, so a dumbbell of 101 pairs would give
   left host 100 and right host 0 one id and carry nothing. Validation
   refuses it by name, as it does for dumbbell_of_dumbbells; 100 pairs
   pass. *)
let test_dumbbell_pairs_validated () =
  let spec pairs =
    {
      Spec.default with
      Spec.topology =
        Spec.Dumbbell
          {
            Spec.pairs;
            access_rate = Sim.Units.mbps 1000.;
            access_delay = ms 1;
            bottleneck_rate = Sim.Units.mbps 100.;
            bottleneck_delay = ms 28;
            buffer_packets = 250;
            host_ifq_capacity = 100;
            red = None;
          };
      flows =
        [ Spec.default_flow; { Spec.default_flow with Spec.pair = pairs - 1 } ];
    }
  in
  (match Spec.validate (spec 101) with
  | () -> Alcotest.fail "101 pairs accepted"
  | exception Invalid_argument e ->
      Alcotest.(check string) "named error"
        "Spec.build: pairs 101 must be within 1..100" e);
  Spec.validate (spec 100)

(* The sender's web100 variables: 19 unique, non-empty names in a fixed
   order, which is also the order of each flow's conn/<label>/* columns
   in the registry. *)
let test_kis_names () =
  let names = List.map fst Tcp.Sender.kis in
  Alcotest.(check (list string)) "the instrument set, in order"
    [
      "PktsOut"; "DataBytesOut"; "PktsRetrans"; "BytesRetrans";
      "CongestionSignals"; "SendStall"; "Timeouts"; "DupAcksIn";
      "FastRetran"; "AcksIn"; "CurCwnd"; "CurSsthresh"; "SmoothedRTT";
      "CurRTO"; "MinRTT"; "MaxRwinRcvd"; "SlowStart"; "CongAvoid"; "CurIFQ";
    ]
    names;
  Alcotest.(check bool) "all nonempty" true
    (List.for_all (fun n -> n <> "") names);
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names));
  let flow label = { Spec.default_flow with Spec.label = Some label } in
  let o =
    Spec.run
      {
        Spec.default with
        Spec.duration = ms 500;
        record_trace = true;
        trace_capacity = 1;
        flows = [ flow "a"; flow "b" ];
      }
  in
  let m = Option.get o.Spec.metrics in
  let columns label = List.map (fun n -> "conn/" ^ label ^ "/" ^ n) names in
  Alcotest.(check (list string)) "registry columns, flow by flow"
    (columns "a" @ columns "b")
    (List.filteri (fun i _ -> i < 2 * List.length names) m.Spec.metric_names)

(* Running totals against a recount: with a ring large enough to drop
   nothing, the records of each kind must equal the counters of the
   component that emitted them — per pipe, per host and per flow. *)
let check_ring_recount (spec : Spec.t) =
  let built =
    Spec.build { spec with Spec.record_trace = true; trace_capacity = 1 lsl 18 }
  in
  let o = Spec.execute built in
  let tr = Option.get o.Spec.trace in
  Alcotest.(check int) "ring dropped nothing" 0 (Trace.dropped tr);
  let counts = Hashtbl.create 64 in
  Trace.iter tr (fun ~time_ns:_ ~code ~src ~arg1:_ ~arg2:_ ->
      let k = (code, src) in
      Hashtbl.replace counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)));
  let ring code src =
    Option.value ~default:0 (Hashtbl.find_opt counts (code, src))
  in
  let check what code src counter =
    Alcotest.(check int) (Printf.sprintf "%s %d" what src) counter
      (ring code src)
  in
  List.iter
    (fun (src, link) ->
      check "link.deliver" Trace.Code.link_deliver src
        (Netsim.Link.delivered link);
      check "link.drop" Trace.Code.link_drop src (Netsim.Link.lost link))
    [ (1, Spec.forward_link built); (2, Spec.reverse_link built) ];
  let pairs =
    match spec.Spec.topology with
    | Spec.Duplex _ -> 1
    | Spec.Dumbbell d -> d.Spec.pairs
    | Spec.Multi_dumbbell _ -> Alcotest.fail "recount: unsupported topology"
  in
  for pair = 0 to pairs - 1 do
    List.iter
      (fun host ->
        let id = Netsim.Host.id host in
        check "nic.tx" Trace.Code.nic_tx id
          (Netsim.Nic.tx_packets (Netsim.Host.nic host));
        check "ifq.stall" Trace.Code.ifq_stall id
          (Netsim.Ifq.stalls (Netsim.Host.ifq host)))
      [ Spec.src_host built ~pair; Spec.dst_host built ~pair ]
  done;
  (* Every flow is a started TCP flow, so flow i has trace source i+1. *)
  let senders = Spec.tcp_senders built in
  Alcotest.(check int) "every flow started" (List.length spec.Spec.flows)
    (List.length senders);
  List.iteri
    (fun i sender ->
      let kis name = int_of_float (List.assoc name Tcp.Sender.kis sender) in
      check "tcp.send_stall" Trace.Code.tcp_send_stall (i + 1)
        (kis "SendStall");
      check "tcp.retransmit" Trace.Code.tcp_retransmit (i + 1)
        (kis "PktsRetrans"))
    senders

(* The paper path cut to 5 s (one send-stall; the path loses nothing),
   so that the ring holds all ~117k records. *)
let test_ring_recount_paper_path () =
  check_ring_recount { Spec.default with Spec.duration = sec 5 }

(* Three flows under burst loss: 14,209 forward and 7,989 reverse
   deliveries, 83 drops, 36 retransmissions. *)
let test_ring_recount_dumbbell_mixed () =
  let text =
    In_channel.with_open_text "../examples/dumbbell_mixed.json"
      In_channel.input_all
  in
  match Result.bind (Report.Json.of_string text) Spec.of_json with
  | Ok spec -> check_ring_recount spec
  | Error e -> Alcotest.fail e

(* --- the restricted PID tuning ------------------------------------------ *)

(* Each range check fails at validation with a named error — with a
   per-connection restricted rule and with a host's shared controller —
   while the edge values that mean something (ti = infinity: no integral
   action; max_step_segments = 0: a frozen window; setpoint_fraction =
   1) pass. *)
let test_restricted_validated () =
  let d = Tcp.Slow_start.default_restricted_config in
  let spec ?(shared_rss = false) c =
    {
      Spec.default with
      Spec.flows =
        [
          {
            Spec.default_flow with
            Spec.slow_start = "restricted";
            restricted = Some c;
            shared_rss;
          };
        ];
    }
  in
  let gains ?(kp = 0.33) ?(ti = 0.06) ?(td = 0.04) () =
    { d with Tcp.Slow_start.gains = Control.Pid.pid ~kp ~ti ~td }
  in
  let rejects what expected c =
    List.iter
      (fun shared_rss ->
        match Spec.validate (spec ~shared_rss c) with
        | () -> Alcotest.failf "%s accepted" what
        | exception Invalid_argument e ->
            Alcotest.(check string) what ("Spec.build: flow 0: " ^ expected) e)
      [ false; true ]
  in
  rejects "negative kp" "restricted kp -0.5 must be >= 0" (gains ~kp:(-0.5) ());
  rejects "zero ti" "restricted ti 0 must be > 0" (gains ~ti:0. ());
  rejects "negative td" "restricted td -0.1 must be >= 0" (gains ~td:(-0.1) ());
  rejects "negative setpoint"
    "restricted setpoint_fraction -1 must be within (0, 1]"
    { d with Tcp.Slow_start.setpoint_fraction = -1. };
  rejects "setpoint above 1"
    "restricted setpoint_fraction 1.5 must be within (0, 1]"
    { d with Tcp.Slow_start.setpoint_fraction = 1.5 };
  rejects "negative step clamp" "restricted max_step_segments -1 must be >= 0"
    { d with Tcp.Slow_start.max_step_segments = -1. };
  rejects "zero sampling floor"
    "restricted sample_min_interval (ms) 0 must be > 0"
    { d with Tcp.Slow_start.sample_min_interval = Sim.Time.zero };
  rejects "negative sampling floor"
    "restricted sample_min_interval (ms) -5e-06 must be > 0"
    { d with Tcp.Slow_start.sample_min_interval = Sim.Time.of_ns_int (-5) };
  List.iter
    (fun c -> Spec.validate (spec c))
    [
      { d with Tcp.Slow_start.gains = Control.Pid.p_only 0.33 };
      { d with Tcp.Slow_start.max_step_segments = 0. };
      { d with Tcp.Slow_start.setpoint_fraction = 1. };
    ]

(* Control.Pid.p_only sets ti = infinity, which JSON writes as null; it
   must read back as infinity. *)
let test_round_trip_p_only () =
  let spec =
    {
      Spec.default with
      Spec.flows =
        [
          {
            Spec.default_flow with
            Spec.slow_start = "restricted";
            restricted =
              Some
                {
                  Tcp.Slow_start.default_restricted_config with
                  Tcp.Slow_start.gains = Control.Pid.p_only 0.33;
                };
          };
        ];
    }
  in
  let text = Report.Json.to_string (Spec.to_json spec) in
  Alcotest.(check bool) "ti is written as null" true
    (Test_policy.contains text {|"ti": null|});
  check_round_trip "P-only gains" spec

(* --- legacy controller keys ------------------------------------------- *)

let md5 s = Digest.to_hex (Digest.string s)
let to_bytes spec = Report.Json.to_string (Spec.to_json spec)

let parse text =
  match Result.bind (Report.Json.of_string text) Spec.of_json with
  | Ok spec -> spec
  | Error e -> Alcotest.fail e

(* Specs may spell a non-Reno avoidance in a separate "cong_avoid" key.
   It decodes into the slow_start name at parse time, and to_json writes
   the key pair back, so the spec's bytes (its snapshot identity), its
   default labels and its outcome match the digests taken when
   "cong_avoid" was an enum field of its own. *)
let legacy_pair_json =
  {|{"name": "legacy-pair", "duration_s": 0.5,
 "flows": [
   {"slow_start": "hystart", "cong_avoid": "cubic"},
   {"slow_start": "restricted", "cong_avoid": "vegas"},
   {"shared_rss": true, "slow_start": "restricted", "cong_avoid": "cubic"},
   {}]}|}

let test_legacy_cong_avoid_key () =
  let spec = parse legacy_pair_json in
  Alcotest.(check (list string)) "decoded into slow_start"
    [ "hystart+cubic"; "restricted+vegas"; "restricted+cubic"; "standard" ]
    (List.map (fun (f : Spec.flow) -> f.Spec.slow_start) spec.Spec.flows);
  Alcotest.(check string) "to_json bytes" "23d5c635ff8c4d8f8496e9294608e6de"
    (md5 (to_bytes spec));
  let o = Spec.run spec in
  Alcotest.(check (list string)) "default labels"
    [ "hystart-0"; "restricted-1"; "restricted-2"; "standard-3" ]
    (List.map (fun (r : Spec.flow_result) -> r.Spec.label) o.Spec.results);
  Alcotest.(check string) "outcome" "45998cf1203cb475e7ef9f741aa548f2"
    (md5 (Report.Json.to_string (Spec.outcome_to_json o)))

let test_examples_to_json_unchanged () =
  List.iter
    (fun (file, digest) ->
      let text =
        In_channel.with_open_bin (Filename.concat "../examples" file)
          In_channel.input_all
      in
      Alcotest.(check string) file digest (md5 (to_bytes (parse text))))
    [
      ("dumbbell_mixed.json", "fd22e264f2f476debe44758ec8de00e3");
      ("dumbbell_of_dumbbells.json", "6b14514fc5f11ef3891a3598c795e0e3");
      ("many_flows_red.json", "8bdcb7c2cf976699fda9250aed657ede");
      ("many_flows_sharded.json", "38b5245097eb33d5f397f53c682cd56a");
    ]

(* "slow_start": "hystart+cubic" is the key pair in one string: the same
   spec bytes and the same run --out artifacts, file for file. *)
let test_plus_name_matches_key_pair () =
  let spec flow =
    parse
      (Printf.sprintf {|{"name": "pair", "duration_s": 1, "flows": [%s]}|}
         flow)
  in
  let pair = spec {|{"slow_start": "hystart", "cong_avoid": "cubic"}|} in
  let plus = spec {|{"slow_start": "hystart+cubic"}|} in
  Alcotest.(check string) "spec bytes" (to_bytes pair) (to_bytes plus);
  let artifacts tag spec =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rss_spec_pair_%d_%s" (Unix.getpid ()) tag)
    in
    List.map
      (fun path ->
        ( Filename.basename path,
          In_channel.with_open_bin path In_channel.input_all ))
      (Serve.Artifacts.write_outcome ~dir spec (Spec.run spec))
  in
  let a = artifacts "pair" pair and b = artifacts "plus" plus in
  Alcotest.(check (list string)) "same files" (List.map fst a) (List.map fst b);
  Alcotest.(check bool) "byte-identical artifacts" true (a = b)

(* short_flows mice take both halves of the flow's policy: on a lossy
   path, Relentless's one-segment loss reaction must show against
   Reno's halving. *)
let test_short_flows_policy () =
  let run policy =
    let o =
      Spec.run
        {
          Spec.default with
          Spec.name = "mice";
          duration = sec 5;
          record_series = false;
          topology =
            Spec.Duplex { Spec.default_duplex with Spec.loss_rate = 0.02 };
          flows =
            [
              {
                Spec.default_flow with
                Spec.label = Some "mice";
                policy = Some policy;
                workload =
                  Spec.Short_flows
                    {
                      arrival_rate = 20.;
                      mean_size = 100_000;
                      pareto_shape = 1.5;
                      stop_at = None;
                    };
              };
            ];
        }
    in
    Report.Json.to_string (Spec.outcome_to_json o)
  in
  Alcotest.(check bool) "relentless and standard mice differ" false
    (run "relentless" = run "standard")

(* The many_flows example at 10^-11 Mbit/s: its full buffer takes
   25,000 × 1,500 B ÷ 1.25·10^-6 B/s = 3·10^13 s to drain, so a round's
   due time leaves the ns clock (past 2^63 ns it converts to 0, and the
   run re-arms every round at the instant it fired, forever).
   Validation refuses it, naming the flow. *)
let test_many_flows_queue_past_clock () =
  let spec =
    let text =
      In_channel.with_open_text "../examples/many_flows_red.json"
        In_channel.input_all
    in
    match Result.bind (Report.Json.of_string text) Spec.of_json with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  let spec =
    {
      spec with
      Spec.duration = Sim.Time.sec 1;
      topology =
        (match spec.Spec.topology with
        | Spec.Duplex d -> Spec.Duplex { d with rate = Sim.Units.mbps 1e-11 }
        | _ -> Alcotest.fail "the example is a duplex path");
      flows =
        List.map
          (fun (f : Spec.flow) ->
            match f.workload with
            | Spec.Many_flows m ->
                { f with Spec.workload = Spec.Many_flows { m with flows = 10 } }
            | _ -> f)
          spec.Spec.flows;
    }
  in
  Alcotest.check_raises "rate 1e-11 Mbit/s"
    (Invalid_argument
       "Spec.build: flow 0: many_flows: the full-buffer queueing delay 3e+13 \
        s (buffer packets x mss / capacity) is past 2^53 ns (about 104 days)")
    (fun () -> Spec.validate spec)

(* A failing cell raises Task_failed with its name whatever the pool,
   the default pool of one included. *)
let test_run_batch_failure_any_pool () =
  let quick name =
    { Spec.default with Spec.name; duration = ms 50; record_series = false }
  in
  let specs =
    [ quick "a"; { (quick "bad") with Spec.domains = 0 }; quick "c" ]
  in
  let failed_cell ?pool () =
    match Spec.run_batch ?pool specs with
    | _ -> Alcotest.fail "expected Task_failed"
    | exception
        Engine.Pool.Task_failed { label; exn = Invalid_argument _; _ } ->
        label
  in
  Alcotest.(check string) "default pool" "bad" (failed_cell ());
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check string) "pool of 1" "bad" (failed_cell ~pool ()));
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check string) "pool of 2" "bad" (failed_cell ~pool ()))

(* More domains than the runtime holds is a validation error naming the
   field; no domain starts. *)
let test_domains_past_the_cap () =
  let spec = { Spec.default with Spec.domains = Engine.Pool.max_jobs + 1 } in
  match Spec.validate spec with
  | () -> Alcotest.fail "domains 129 validated"
  | exception Invalid_argument e ->
      Alcotest.(check string) "names domains"
        "Spec.build: domains 129 must be <= 128" e

let suite =
  [
    Alcotest.test_case "round-trip: default" `Quick test_round_trip_default;
    Alcotest.test_case "round-trip: 62-bit seed" `Quick
      test_round_trip_62bit_seed;
    Alcotest.test_case "round-trip: fault profiles" `Quick
      test_round_trip_faults;
    Alcotest.test_case "round-trip: trace fields" `Quick
      test_round_trip_trace_fields;
    Alcotest.test_case "traced run observes only" `Slow
      test_traced_run_observes_only;
    Alcotest.test_case "round-trip: workload kinds" `Quick
      test_round_trip_workloads;
    Alcotest.test_case "round-trip: dumbbell, RED, overrides" `Quick
      test_round_trip_dumbbell_red;
    Alcotest.test_case "template parses and builds" `Quick
      test_template_parses_and_builds;
    Alcotest.test_case "of_json errors name the field" `Quick
      test_of_json_errors;
    Alcotest.test_case "golden: duplex restricted" `Slow test_golden_duplex;
    Alcotest.test_case "golden: faulted dumbbell pair" `Slow
      test_golden_dumbbell;
    Alcotest.test_case "identical at any worker count" `Slow
      test_jobs_determinism;
    Alcotest.test_case "build validates the spec" `Quick test_validation;
    Alcotest.test_case "trace_capacity below 1 rejected" `Quick
      test_trace_capacity_validated;
    Alcotest.test_case "dumbbell pairs above 100 rejected" `Quick
      test_dumbbell_pairs_validated;
    Alcotest.test_case "KIS names" `Quick test_kis_names;
    Alcotest.test_case "ring recount: paper path" `Quick
      test_ring_recount_paper_path;
    Alcotest.test_case "ring recount: dumbbell_mixed" `Quick
      test_ring_recount_dumbbell_mixed;
    Alcotest.test_case "many_flows refuses stateful avoidance" `Quick
      test_many_flows_cong_avoid;
    Alcotest.test_case "bulk + chunked collect side by side" `Slow
      test_mixed_tcp_collect;
    Alcotest.test_case "restricted tuning is range-checked" `Quick
      test_restricted_validated;
    Alcotest.test_case "round-trip: P-only gains" `Quick test_round_trip_p_only;
    Alcotest.test_case "legacy cong_avoid key: bytes, labels, outcome" `Quick
      test_legacy_cong_avoid_key;
    Alcotest.test_case "examples: to_json bytes unchanged" `Quick
      test_examples_to_json_unchanged;
    Alcotest.test_case "hystart+cubic = the legacy key pair" `Quick
      test_plus_name_matches_key_pair;
    Alcotest.test_case "short_flows mice take the policy's avoidance" `Quick
      test_short_flows_policy;
    Alcotest.test_case "dumbbell = its one-segment chain" `Slow
      test_dumbbell_is_one_segment_chain;
    Alcotest.test_case "of_json: _ keys are free, null durations are none"
      `Quick test_of_json_free_keys_and_null;
    Alcotest.test_case "template names every key" `Quick
      test_template_names_every_key;
    Alcotest.test_case "many_flows refuses a queue delay past the clock"
      `Quick test_many_flows_queue_past_clock;
    Alcotest.test_case "run_batch: Task_failed at any pool" `Quick
      test_run_batch_failure_any_pool;
    Alcotest.test_case "domains past the domain limit refused" `Quick
      test_domains_past_the_cap;
  ]
