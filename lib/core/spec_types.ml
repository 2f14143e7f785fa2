(* The scenario and result types, their defaults and the helpers that
   validation, build and execution share. spec.mli documents each
   type; Spec re-exports them with their equations. *)

module Fm = Netsim.Fault_model

type duplex = {
  rate : Sim.Units.rate;
  one_way_delay : Sim.Time.t;
  ifq_capacity : int;
  loss_rate : float;
  ifq_red_ecn : Netsim.Queue_disc.red_params option;
}

type dumbbell = {
  pairs : int;
  access_rate : Sim.Units.rate;
  access_delay : Sim.Time.t;
  bottleneck_rate : Sim.Units.rate;
  bottleneck_delay : Sim.Time.t;
  buffer_packets : int;
  host_ifq_capacity : int;
  red : Netsim.Queue_disc.red_params option;
}

type multi_dumbbell = {
  segments : int;
  m_pairs : int;
  m_access_rate : Sim.Units.rate;
  m_access_delay : Sim.Time.t;
  m_bottleneck_rate : Sim.Units.rate;
  m_bottleneck_delay : Sim.Time.t;
  core_rate : Sim.Units.rate;
  core_delay : Sim.Time.t;
  m_buffer_packets : int;
  m_host_ifq_capacity : int;
  m_red : Netsim.Queue_disc.red_params option;
  cross_pairs : int;
}

type topology =
  | Duplex of duplex
  | Dumbbell of dumbbell
  | Multi_dumbbell of multi_dumbbell

type workload =
  | Bulk of { bytes : int option }
  | Chunked of {
      chunk_bytes : int;
      interval : Sim.Time.t;
      chunks : int option;
    }
  | Cbr of {
      rate : Sim.Units.rate;
      packet_bytes : int;
      stop_at : Sim.Time.t option;
    }
  | On_off of {
      peak_rate : Sim.Units.rate;
      mean_on : Sim.Time.t;
      mean_off : Sim.Time.t;
      packet_bytes : int;
    }
  | Short_flows of {
      arrival_rate : float;
      mean_size : int;
      pareto_shape : float;
      stop_at : Sim.Time.t option;
    }
  | Many_flows of {
      flows : int;
      arrival_rate : float option;
      arrival_pareto_shape : float option;
      mean_size : int option;
      size_pareto_shape : float;
    }

type flow = {
  label : string option;
  pair : int;
  start_at : Sim.Time.t;
  policy : string option;
  slow_start : string;
  restricted : Tcp.Slow_start.restricted_config option;
  shared_rss : bool;
  local_congestion : Tcp.Local_congestion.policy;
  delayed_ack : Sim.Time.t option;
  use_sack : bool;
  pacing : bool;
  slow_start_restart : bool;
  max_rto : Sim.Time.t option;
  workload : workload;
}

type faults = { forward : Fm.profile; reverse : Fm.profile }

type t = {
  name : string;
  seed : int;
  duration : Sim.Time.t;
  sample_period : Sim.Time.t;
  record_series : bool;
  record_trace : bool;
  trace_capacity : int;
  domains : int;
  topology : topology;
  flows : flow list;
  faults : faults;
}

let default_duplex =
  {
    rate = Sim.Units.mbps 100.;
    one_way_delay = Sim.Time.ms 30;
    ifq_capacity = 100;
    loss_rate = 0.;
    ifq_red_ecn = None;
  }

let default_flow =
  {
    label = None;
    pair = 0;
    start_at = Sim.Time.zero;
    policy = None;
    slow_start = "standard";
    restricted = None;
    shared_rss = false;
    local_congestion = Tcp.Local_congestion.Halve;
    delayed_ack = Tcp.Config.default.Tcp.Config.delayed_ack;
    use_sack = true;
    pacing = false;
    slow_start_restart = Tcp.Config.default.Tcp.Config.slow_start_restart;
    max_rto = None;
    workload = Bulk { bytes = None };
  }

let default =
  {
    name = "scenario";
    seed = 1;
    duration = Sim.Time.sec 25;
    sample_period = Sim.Time.ms 250;
    record_series = true;
    record_trace = false;
    trace_capacity = 65536;
    domains = 1;
    topology = Duplex default_duplex;
    flows = [ default_flow ];
    faults = { forward = Fm.passthrough; reverse = Fm.passthrough };
  }

let workload_kinds =
  [ "bulk"; "chunked"; "cbr"; "on_off"; "short_flows"; "many_flows" ]

(* --- results ----------------------------------------------------------- *)

type flow_result = {
  label : string;
  goodput_mbps : float;
  utilization : float;
  send_stalls : int;
  congestion_signals : int;
  retransmits : int;
  timeouts : int;
  final_cwnd_segments : float;
  mean_ifq : float;
  peak_ifq : float;
  ce_marks : int;
  completion : Sim.Time.t option;
  time_to_90pct_util : float option;
  stalls_series : Sim.Stats.Series.t;
  cwnd_series : Sim.Stats.Series.t;
  ifq_series : Sim.Stats.Series.t;
  throughput_series : Sim.Stats.Series.t;
  srtt_series : Sim.Stats.Series.t;
}

type path_stats = {
  aggregate_goodput_mbps : float;
  jain_index : float;
  queue_mean : float;
  queue_peak : float;
  router_drops : int;
}

type metrics = {
  metric_names : string list;
  samples : (float * float array) list;
}

type outcome = {
  results : flow_result list;
  path : path_stats;
  trace : Trace.t option;
  metrics : metrics option;
  resume_from : string option;
      (* snapshot this run resumed from; never serialized, so resumed
         and unbroken runs emit byte-identical artifacts *)
}

(* --- checkpoint / resume ------------------------------------------------ *)

type checkpoint = {
  snapshot_path : string;
  interval : Sim.Time.t; (* simulated time between snapshots *)
  should_stop : unit -> bool; (* polled after each snapshot *)
}

exception Drained of { at : Sim.Time.t; snapshot : string }

(* --- shared helpers ----------------------------------------------------- *)

let err fmt = Printf.ksprintf invalid_arg fmt

(* The chain every topology but the duplex path is validated and built
   as. A dumbbell is the one-segment dumbbell_of_dumbbells: segment 0 of
   a one-segment chain has the dumbbell's node ids and construction
   order, and there is no core link. The core fields only have to pass
   the chain's checks: the core rate is the bottleneck rate, checked
   just before it, and a zero core delay is valid. Callers match the
   duplex path first, so it allocates nothing new. *)
let chain = function
  | Multi_dumbbell m -> m
  | Dumbbell d ->
      {
        segments = 1;
        m_pairs = d.pairs;
        m_access_rate = d.access_rate;
        m_access_delay = d.access_delay;
        m_bottleneck_rate = d.bottleneck_rate;
        m_bottleneck_delay = d.bottleneck_delay;
        core_rate = d.bottleneck_rate;
        core_delay = Sim.Time.zero;
        m_buffer_packets = d.buffer_packets;
        m_host_ifq_capacity = d.host_ifq_capacity;
        m_red = d.red;
        cross_pairs = 0;
      }
  | Duplex _ -> invalid_arg "Spec.chain: a duplex path is not a chain"

let pairs_of = function
  | Duplex _ -> 1
  | topo ->
      let m = chain topo in
      (m.segments * m.m_pairs) + m.cross_pairs

(* Many-flows shards: one sub-population per segment of a chain, a
   single one on the duplex path. A function of the topology alone, so
   every domain count builds the identical shard layout. *)
let shards_of = function Duplex _ -> 1 | topo -> (chain topo).segments

(* The bottleneck the fluid many-flows engine models itself, derived
   from the topology: a duplex path's egress IFQ, or a chain segment's
   bottleneck buffer, which each shard abstracts for its own segment.
   Validation judges it and build fills in the population. *)
let many_flows_bottleneck topo =
  let p = Workload.Many_flows.default_params in
  match topo with
  | Duplex d ->
      {
        p with
        capacity_bytes_per_sec = d.rate /. 8.;
        base_rtt = Sim.Time.mul_int d.one_way_delay 2;
        buffer_packets = d.ifq_capacity;
        red = d.ifq_red_ecn;
      }
  | topo ->
      let m = chain topo in
      {
        p with
        capacity_bytes_per_sec = m.m_bottleneck_rate /. 8.;
        base_rtt =
          Sim.Time.mul_int
            (Sim.Time.add
               (Sim.Time.mul_int m.m_access_delay 2)
               m.m_bottleneck_delay)
            2;
        buffer_packets = m.m_buffer_packets;
        red = m.m_red;
      }

(* A fresh instance of the flow's controllers: [policy] if set, else
   [slow_start]. [shared] yields the sending host's shared RSS
   controller, which replaces the slow-start half of a [shared_rss]
   flow; validation, which instantiates nothing, omits it. Raises
   [Invalid_argument] on an unknown name. *)
let bundle_for ?shared (f : flow) =
  let name = Option.value f.policy ~default:f.slow_start in
  match (Tcp.Policy.by_name ?restricted_config:f.restricted name, shared) with
  | Error e, _ -> invalid_arg e
  | Ok p, Some controller when f.shared_rss ->
      { p with Tcp.Policy.slow_start = Tcp.Shared_rss.policy (controller ()) }
  | Ok p, _ -> p
