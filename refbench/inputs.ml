(* The five reference workloads, generated from a seed.

   Each workload is a closed batch of Spec-JSON documents, all known at
   t0 and run one after the other. The documents are written out here
   rather than read from examples/, so the benchmark's inputs change
   only when this file does; they follow examples/*.json and
   Core.Spec.default, scaled so that one sample takes a few seconds.
   [seed] is added to every document's seed. Why each workload exists
   is recorded in BENCHMARK.json and README.md. *)

type t = {
  name : string;
  served : bool;
      (** submitted to Serve.Supervisor as jobs rather than run through
          Core.Spec directly *)
  specs : seed:int -> string list;  (** Spec-JSON documents, run order *)
}

let paper_variants =
  [ "standard"; "abc"; "limited"; "hystart"; "ssthreshless"; "restricted";
    "restricted-adaptive" ]

(* The paper's path (Spec.default: 100 Mbit/s, 30 ms each way, IFQ 100)
   for 25 s per slow-start variant. Nothing in it draws randomness, so
   the seed changes only the recorded seed field. *)
let paper_path ~seed =
  List.map
    (fun v ->
      let d = Core.Spec.default in
      Report.Json.to_string
        (Core.Spec.to_json
           {
             d with
             Core.Spec.name = "paper-" ^ v;
             seed = d.Core.Spec.seed + seed;
             record_series = true;
             flows =
               [
                 {
                   Core.Spec.default_flow with
                   Core.Spec.label = Some v;
                   slow_start = v;
                 };
               ];
           }))
    paper_variants

(* examples/dumbbell_of_dumbbells.json: four segments, 8 local and 3
   boundary-crossing bulk flows. The samples run it at domains 1: on a
   2-core host shared with other tenants, a 2-domain run's wall time
   swings with the load on either core (per-sample IQR/median 0.32
   against 0.12 at domains 1 in one 15-minute interleaved series), wider
   than any usable bound. The layer run measures the partitioned engine
   at domains 2 (sim.partition.speedup_d2) and checks it reproduces the
   domains-1 digest. *)
let dumbbell_of_dumbbells ~name ~seed ~duration_s =
  let bulk ?(start = 0.) label pair ss bytes =
    Printf.sprintf
      {|{"label": "%s", "pair": %d, "start_at_s": %g, "slow_start": "%s", "workload": {"kind": "bulk", "bytes": %s}}|}
      label pair start ss bytes
  in
  Printf.sprintf
    {|{"name": "%s", "seed": "%d", "duration_s": %g, "sample_period_s": 0.25,
 "record_series": true, "domains": 1,
 "topology": {"kind": "dumbbell_of_dumbbells", "segments": 4, "pairs": 2,
   "access_rate_mbps": 1000, "access_delay_s": 0.001,
   "bottleneck_rate_mbps": 100, "bottleneck_delay_s": 0.01,
   "core_rate_mbps": 400, "core_delay_s": 0.005, "buffer_packets": 250,
   "ifq_capacity": 100, "cross_pairs": 3},
 "flows": [%s]}|}
    name seed duration_s
    (String.concat ",\n  "
       (List.concat_map
          (fun s ->
            [
              bulk (Printf.sprintf "seg%d-rss" s) (2 * s) "restricted" "null";
              bulk
                ~start:(0.5 *. float_of_int (s + 1))
                (Printf.sprintf "seg%d-std" s)
                ((2 * s) + 1)
                "standard" "null";
            ])
          [ 0; 1; 2; 3 ]
       @ [
           bulk "cross01" 8 "restricted" "40000000";
           bulk "cross12" 9 "standard" "40000000";
           bulk "cross23" 10 "hystart" "40000000";
         ]))

(* examples/many_flows_red.json: persistent AIMD flows through one
   100 Gbit/s RED bottleneck, flow-level engine. *)
let many_flows_red ~name ~seed ~flows ~duration_s =
  Printf.sprintf
    {|{"name": "%s", "seed": "%d", "duration_s": %g, "sample_period_s": 0.25,
 "record_series": true,
 "topology": {"kind": "duplex", "rate_mbps": 100000, "one_way_delay_s": 0.03,
   "ifq_capacity": 25000,
   "ifq_red_ecn": {"min_th": 5000.0, "max_th": 15000.0, "max_p": 0.1, "weight": 0.002}},
 "flows": [{"label": "crowd", "workload": {"kind": "many_flows", "flows": %d,
   "arrival_rate": null, "arrival_pareto_shape": null, "mean_size": null,
   "size_pareto_shape": 1.2}}]}|}
    name seed duration_s flows

(* examples/many_flows_sharded.json: finite Pareto-sized flows arriving
   over four dumbbell segments, one engine shard per segment. *)
let many_flows_sharded ~name ~seed ~duration_s =
  Printf.sprintf
    {|{"name": "%s", "seed": "%d", "duration_s": %g, "sample_period_s": 0.25,
 "record_series": true, "domains": 1,
 "topology": {"kind": "dumbbell_of_dumbbells", "segments": 4, "pairs": 2,
   "access_rate_mbps": 1000, "access_delay_s": 0.001,
   "bottleneck_rate_mbps": 100, "bottleneck_delay_s": 0.01,
   "core_rate_mbps": 400, "core_delay_s": 0.005, "buffer_packets": 250,
   "ifq_capacity": 100, "cross_pairs": 0},
 "flows": [{"label": "crowd", "workload": {"kind": "many_flows", "flows": 200000,
   "arrival_rate": 40000, "arrival_pareto_shape": null, "mean_size": 60000,
   "size_pareto_shape": 1.3}}]}|}
    name seed duration_s

let all =
  [
    { name = "paper_path"; served = false; specs = paper_path };
    {
      name = "multi_dumbbell";
      served = false;
      specs =
        (fun ~seed ->
          [
            dumbbell_of_dumbbells ~name:"multi-dumbbell" ~seed:(42 + seed)
              ~duration_s:20.;
          ]);
    };
    {
      name = "mf_crowd_1m";
      served = false;
      specs =
        (fun ~seed ->
          [
            many_flows_red ~name:"mf-crowd-1m" ~seed:(1 + seed)
              ~flows:1_000_000 ~duration_s:1.;
          ]);
    };
    {
      name = "mf_wide_2k";
      served = false;
      specs =
        (fun ~seed ->
          [
            many_flows_red ~name:"mf-wide-2k" ~seed:(1 + seed) ~flows:2_000
              ~duration_s:20.;
          ]);
    };
    {
      name = "serve_batch";
      served = true;
      specs =
        (fun ~seed ->
          [
            many_flows_red ~name:"serve-red-0" ~seed:(1 + seed) ~flows:100_000
              ~duration_s:2.;
            many_flows_red ~name:"serve-red-1" ~seed:(2 + seed) ~flows:100_000
              ~duration_s:2.;
            many_flows_sharded ~name:"serve-sharded-0" ~seed:(43 + seed)
              ~duration_s:2.;
            many_flows_sharded ~name:"serve-sharded-1" ~seed:(44 + seed)
              ~duration_s:2.;
          ]);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
