(* Declarative scenarios: the public face of the pipeline, with
   spec.mli its one contract. Each stage is a private module of this
   library:
   - Spec_types: the spec and result types, defaults, shared helpers;
   - Spec_validate: the checks build makes, instantiating nothing;
   - Spec_build: the spec compiled into a live network and flows;
   - Spec_exec: instruments, the registry, the run and its breaks,
     result collection and checkpoint/resume.
   Codec, which the library exports, describes each JSON object of a
   spec once; [to_json] and [of_json] read that description. *)

module Json = Report.Json
include Spec_types

let validate = Spec_validate.validate

type built = Spec_build.built

let build = Spec_build.build
let sched = Spec_build.sched
let trace = Spec_build.trace
let src_host = Spec_build.src_host
let dst_host = Spec_build.dst_host
let forward_link = Spec_build.forward_link
let reverse_link = Spec_build.reverse_link
let fault_models = Spec_build.fault_models
let many_flows_engines = Spec_build.many_flows_engines
let tcp_senders = Spec_exec.tcp_senders
let snapshot_supported = Spec_exec.snapshot_supported

(* --- JSON --------------------------------------------------------------- *)

let to_json t = Codec.write Codec.spec t
let of_json j = Codec.decode Codec.spec j

(* The spec identity a snapshot embeds: the canonical JSON rendering,
   so a resume against a different scenario — or the same scenario with
   one knob changed — fails loudly. Defined here (after [to_json]); the
   checkpoint machinery in Spec_exec takes it as a parameter and renders
   it only when it saves or restores a snapshot. *)
let spec_identity t = Json.to_string (to_json t)

let execute ?checkpoint ?resume_from b =
  Spec_exec.execute_core ?checkpoint ~resume:resume_from
    ~identity:(lazy (spec_identity b.Spec_build.bspec)) b

let run ?checkpoint ?resume_from spec =
  execute ?checkpoint ?resume_from (build spec)

let run_batch ?(pool = Engine.Pool.sequential) specs =
  Engine.Pool.map pool ~label:(fun s -> s.name) ~f:(fun s -> run s) specs

(* --- result serialization ---------------------------------------------- *)

let int_to_json = Codec.(write Int)
let opt_float_to_json = Codec.(write (Opt Float))

let flow_result_to_json r =
  Json.Obj
    [
      ("label", Json.String r.label);
      ("goodput_mbps", Json.Number r.goodput_mbps);
      ("utilization", Json.Number r.utilization);
      ("send_stalls", int_to_json r.send_stalls);
      ("congestion_signals", int_to_json r.congestion_signals);
      ("retransmits", int_to_json r.retransmits);
      ("timeouts", int_to_json r.timeouts);
      ("final_cwnd_segments", Json.Number r.final_cwnd_segments);
      ("mean_ifq", Json.Number r.mean_ifq);
      ("peak_ifq", Json.Number r.peak_ifq);
      ("ce_marks", int_to_json r.ce_marks);
      ("completion_s", opt_float_to_json (Option.map Sim.Time.to_sec r.completion));
      ("time_to_90pct_util_s", opt_float_to_json r.time_to_90pct_util);
    ]

let outcome_to_json o =
  Json.Obj
    [
      ("flows", Json.List (List.map flow_result_to_json o.results));
      ( "path",
        Json.Obj
          [
            ("aggregate_goodput_mbps", Json.Number o.path.aggregate_goodput_mbps);
            ("jain_index", Json.Number o.path.jain_index);
            ("queue_mean", Json.Number o.path.queue_mean);
            ("queue_peak", Json.Number o.path.queue_peak);
            ("router_drops", int_to_json o.path.router_drops);
          ] );
    ]

(* --- template ----------------------------------------------------------- *)

let template () =
  {|{
  "_doc": "rss_sim scenario spec. Keys that start with _ (like these _doc entries) are free; any other unknown key is an error. Missing keys take the defaults shown by `rss_sim spec`. Durations accept either <key>_ns integers or <key>_s float seconds, not both.",
  "name": "example",
  "_doc_seed": "decimal string, not a number: 62-bit seeds do not survive JSON doubles",
  "seed": "1",
  "duration_s": 10,
  "sample_period_s": 0.25,
  "record_series": true,
  "_doc_record_trace": "true attaches the run-wide event tracer (ring of trace_capacity records) and the unified metrics registry; `rss_sim run --spec FILE --out DIR` writes them as CSV and Chrome trace_event JSON",
  "record_trace": false,
  "trace_capacity": 65536,
  "_doc_domains": "partition the simulation across N OCaml domains (conservative-lookahead parallel DES); needs a cut-capable topology (duplex or dumbbell_of_dumbbells) and identical artifacts are guaranteed at any value; 1 = the classic single-scheduler engine",
  "domains": 1,
  "_doc_topology": "kind duplex (the paper's sender-limited path: rate_mbps, one_way_delay_s, ifq_capacity, loss_rate, ifq_red_ecn), dumbbell (pairs, access_rate_mbps, access_delay_s, bottleneck_rate_mbps, bottleneck_delay_s, buffer_packets, ifq_capacity, red) or dumbbell_of_dumbbells (segments chained through core_rate_mbps/core_delay_s duplex links, plus the dumbbell knobs per segment and cross_pairs flows spanning adjacent segments); red and ifq_red_ecn are null or RED's {min_th, max_th (packets), max_p, weight}",
  "topology": {
    "kind": "dumbbell",
    "pairs": 2,
    "access_rate_mbps": 100,
    "access_delay_s": 0.001,
    "bottleneck_rate_mbps": 100,
    "bottleneck_delay_s": 0.028,
    "buffer_packets": 250,
    "ifq_capacity": 100
  },
  "_doc_flows": "one entry per flow; pair selects the host pair and start_at_s delays the start; slow_start names the flow's congestion control (see `rss_sim list`): a slow-start rule alone (with reno), RULE+AVOIDANCE such as hystart+cubic, or a named bundle; the older key cong_avoid (e.g. cubic) is the same as appending +cubic to slow_start; policy (optional) takes the same names and overrides slow_start; restricted {kp, ti (null: no integral action), td, setpoint_fraction, max_step_segments, sample_min_interval_s} retunes the restricted rules; shared_rss=true steers the flow from a host-wide restricted controller; local_congestion (halve, cwr or ignore) is the reaction to a send-stall; delayed_ack_s (null: none), use_sack, pacing, slow_start_restart and max_rto_s (null: the TCP default) set the connection",
  "_doc_workload": "workload.kind is bulk {bytes or null for unbounded}, chunked {chunk_bytes every interval_s, chunks or null for unbounded}, cbr {rate_mbps, packet_bytes, stop_at_s or null}, on_off {peak_rate_mbps, exponential mean_on_s and mean_off_s, packet_bytes}, short_flows {arrival_rate flows/s, mean_size bytes, pareto_shape, stop_at_s or null} or many_flows (N abstract AIMD flows through a fluid bottleneck: flows, arrival_rate flows/s or null for all-at-zero, arrival_pareto_shape or null for Poisson, mean_size bytes or null for persistent, size_pareto_shape)",
  "flows": [
    {
      "label": "restricted",
      "pair": 0,
      "slow_start": "restricted",
      "workload": { "kind": "bulk", "bytes": null }
    },
    {
      "label": "standard",
      "pair": 1,
      "start_at_s": 1.0,
      "slow_start": "standard",
      "workload": { "kind": "bulk", "bytes": null }
    }
  ],
  "_doc_faults": "Netsim.Fault_model profiles for the data (forward) and ACK (reverse) directions: ge {p_gb,p_bg,loss_good,loss_bad}, reorder/duplicate {prob,max_extra_s}, schedule [{kind:outage,start_s,stop_s} | {kind:delay_step,at_s,extra_s}]",
  "faults": {
    "forward": {
      "ge": null,
      "reorder": null,
      "duplicate": null,
      "schedule": [ { "kind": "outage", "start_s": 4.0, "stop_s": 4.5 } ]
    },
    "reverse": { "ge": null, "reorder": null, "duplicate": null, "schedule": [] }
  }
}
|}
