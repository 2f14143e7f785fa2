(* Declarative scenario pipeline: spec value -> built network -> outcome.

   Compilation is ordered so that a spec reproducing one of the legacy
   hand-wired assemblies (the one-flow paper path, experiments
   E5/E8/E11/E13/E14, the chaos harness) performs the same
   scheduler/RNG operations in the same sequence, keeping results
   byte-identical through the refactor:
   scheduler -> topology -> fault models (forward, then reverse) ->
   flows in list order -> instrumentation timers -> run. *)

module Json = Report.Json
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

(* --- validation -------------------------------------------------------- *)

let err fmt = Printf.ksprintf invalid_arg fmt

let check_positive_rate what r =
  if not (r > 0.) then
    err "Spec.build: %s %g must be positive" what (Sim.Units.rate_to_mbps r)

let check_delay what d =
  if Sim.Time.is_negative d then
    err "Spec.build: %s %gms must be non-negative" what (Sim.Time.to_ms d)

(* RED's drop curve climbs from 0 at min_th to max_p at max_th (the
   mean-field gain divides by max_th - min_th), and the average queue
   moves by weight per arrival: weight 0 would switch RED off and a
   zero-width curve would force-drop every packet. *)
let check_red what (r : Netsim.Queue_disc.red_params) =
  if not (r.min_th >= 0.) then
    err "Spec.build: %s min_th %g must be >= 0" what r.min_th;
  if not (r.max_th > r.min_th) then
    err "Spec.build: %s max_th %g must exceed min_th %g" what r.max_th
      r.min_th;
  if not (r.max_p > 0. && r.max_p <= 1.) then
    err "Spec.build: %s max_p %g must be within (0, 1]" what r.max_p;
  if not (r.weight > 0. && r.weight <= 1.) then
    err "Spec.build: %s weight %g must be within (0, 1]" what r.weight

let check_faults direction profile =
  try Fm.validate profile
  with Invalid_argument e -> err "Spec.build: faults %s: %s" direction e

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

(* The restricted rules' PID tuning, range by range, so a bad value
   fails here and not inside build or mid-run. ti = infinity (no
   integral action) passes; max_step_segments = 0 freezes the window. *)
let validate_restricted i
    { Tcp.Slow_start.gains = { Control.Pid.kp; ti; td }; setpoint_fraction;
      max_step_segments; sample_min_interval } =
  let check ok name v rule =
    if not ok then
      err "Spec.build: flow %d: restricted %s %g must be %s" i name v rule
  in
  check (kp >= 0.) "kp" kp ">= 0";
  check (ti > 0.) "ti" ti "> 0";
  check (td >= 0.) "td" td ">= 0";
  check (setpoint_fraction > 0. && setpoint_fraction <= 1.)
    "setpoint_fraction" setpoint_fraction "within (0, 1]";
  check (max_step_segments >= 0.) "max_step_segments" max_step_segments
    ">= 0";
  check (Sim.Time.is_positive sample_min_interval) "sample_min_interval (ms)"
    (Sim.Time.to_ms sample_min_interval) "> 0"

let validate_flow ~pairs i f =
  if f.pair < 0 || f.pair >= pairs then
    err "Spec.build: flow %d: pair %d outside 0..%d" i f.pair (pairs - 1);
  if Sim.Time.is_negative f.start_at then
    err "Spec.build: flow %d: start time %gs must be non-negative" i
      (Sim.Time.to_sec f.start_at);
  if f.policy <> None && f.shared_rss then
    err "Spec.build: flow %d: policy and shared_rss are mutually exclusive" i;
  (* The RTO is clamped to max_rto, so a zero one re-fires the timer at
     the same instant forever. A negative ACK delay would be clamped to
     0 by the scheduler. *)
  (match f.max_rto with
  | Some rto when not (Sim.Time.is_positive rto) ->
      err "Spec.build: flow %d: max_rto %gs must be positive" i
        (Sim.Time.to_sec rto)
  | _ -> ());
  (match f.delayed_ack with
  | Some d when Sim.Time.is_negative d ->
      err "Spec.build: flow %d: delayed_ack %gs must be non-negative" i
        (Sim.Time.to_sec d)
  | _ -> ());
  Option.iter (validate_restricted i) f.restricted;
  let policy =
    try bundle_for f
    with Invalid_argument e -> err "Spec.build: flow %d: %s" i e
  in
  match f.workload with
  | Bulk { bytes = Some b } when b <= 0 ->
      err "Spec.build: flow %d: bytes %d must be positive" i b
  | Bulk _ -> ()
  | Chunked { chunk_bytes; interval; chunks } ->
      if chunk_bytes <= 0 then
        err "Spec.build: flow %d: chunk_bytes %d must be positive" i
          chunk_bytes;
      if Sim.Time.(interval <= Sim.Time.zero) then
        err "Spec.build: flow %d: chunk interval must be positive" i;
      (match chunks with
      | Some c when c <= 0 ->
          err "Spec.build: flow %d: chunks %d must be positive" i c
      | _ -> ())
  | Cbr { rate; packet_bytes; _ } ->
      check_positive_rate (Printf.sprintf "flow %d: cbr rate" i) rate;
      if packet_bytes <= 0 then
        err "Spec.build: flow %d: packet_bytes %d must be positive" i
          packet_bytes
  | On_off { peak_rate; mean_on; mean_off; packet_bytes } ->
      check_positive_rate (Printf.sprintf "flow %d: peak rate" i) peak_rate;
      if Sim.Time.(mean_on <= Sim.Time.zero)
         || Sim.Time.(mean_off <= Sim.Time.zero)
      then err "Spec.build: flow %d: on/off means must be positive" i;
      if packet_bytes <= 0 then
        err "Spec.build: flow %d: packet_bytes %d must be positive" i
          packet_bytes
  | Short_flows { arrival_rate; mean_size; pareto_shape; _ } ->
      if not (arrival_rate > 0.) then
        err "Spec.build: flow %d: arrival rate %g must be positive" i
          arrival_rate;
      if mean_size <= 0 then
        err "Spec.build: flow %d: mean size %d must be positive" i mean_size;
      if not (pareto_shape > 1.) then
        err "Spec.build: flow %d: pareto shape %g must exceed 1" i
          pareto_shape
  | Many_flows
      { flows; arrival_rate; arrival_pareto_shape; mean_size;
        size_pareto_shape } ->
      if flows <= 0 then
        err "Spec.build: flow %d: flows %d must be positive" i flows;
      Option.iter
        (err "Spec.build: flow %d: many_flows: %s" i)
        (Workload.Many_flows.cong_avoid_error policy.Tcp.Policy.cong_avoid);
      (match arrival_rate with
      | Some r when not (r > 0.) ->
          err "Spec.build: flow %d: arrival rate %g must be positive" i r
      | _ -> ());
      (match arrival_pareto_shape with
      | Some s when not (s > 1.) ->
          err "Spec.build: flow %d: arrival pareto shape %g must exceed 1" i s
      | _ -> ());
      (match mean_size with
      | Some m when m <= 0 ->
          err "Spec.build: flow %d: mean size %d must be positive" i m
      | _ -> ());
      if mean_size <> None && not (size_pareto_shape > 1.) then
        err "Spec.build: flow %d: size pareto shape %g must exceed 1" i
          size_pareto_shape

let validate (t : t) =
  if t.flows = [] then err "Spec.build: at least one flow is required";
  if Sim.Time.(t.duration <= Sim.Time.zero) then
    err "Spec.build: duration %gs must be positive"
      (Sim.Time.to_sec t.duration);
  if Sim.Time.(t.sample_period <= Sim.Time.zero) then
    err "Spec.build: sample_period %gs must be positive"
      (Sim.Time.to_sec t.sample_period);
  (match t.topology with
  | Duplex d ->
      check_positive_rate "rate" d.rate;
      check_delay "one_way_delay" d.one_way_delay;
      if d.ifq_capacity < 1 then
        err "Spec.build: ifq_capacity %d must be >= 1" d.ifq_capacity;
      if not (d.loss_rate >= 0. && d.loss_rate <= 1.) then
        err "Spec.build: loss_rate %g must be within [0, 1]" d.loss_rate;
      (match d.ifq_red_ecn with
      | Some r -> check_red "ifq_red_ecn" r
      | None -> ())
  | topo ->
      let m = chain topo in
      if m.segments < 1 then
        err "Spec.build: segments %d must be >= 1" m.segments;
      (* Right host i has id 100 + i: past 100 pairs it would share an
         id with a left host. *)
      if m.m_pairs < 1 || m.m_pairs > 100 then
        err "Spec.build: pairs %d must be within 1..100" m.m_pairs;
      if m.cross_pairs < 0 || m.cross_pairs > m.segments - 1 then
        err "Spec.build: cross_pairs %d must be within 0..segments-1"
          m.cross_pairs;
      check_positive_rate "access rate" m.m_access_rate;
      check_positive_rate "bottleneck rate" m.m_bottleneck_rate;
      check_positive_rate "core rate" m.core_rate;
      check_delay "access_delay" m.m_access_delay;
      check_delay "bottleneck_delay" m.m_bottleneck_delay;
      check_delay "core_delay" m.core_delay;
      if m.m_buffer_packets < 1 then
        err "Spec.build: buffer_packets %d must be >= 1" m.m_buffer_packets;
      if m.m_host_ifq_capacity < 1 then
        err "Spec.build: ifq_capacity %d must be >= 1" m.m_host_ifq_capacity;
      match m.m_red with
      | Some r -> check_red "red" r
      | None -> ());
  check_faults "forward" t.faults.forward;
  check_faults "reverse" t.faults.reverse;
  if t.domains < 1 then err "Spec.build: domains %d must be >= 1" t.domains;
  if t.trace_capacity < 1 then
    err "Spec.build: trace_capacity %d must be >= 1" t.trace_capacity;
  (* Partitioned runs keep every piece of shared mutable state off the
     table: no global trace ring, no fault models straddling the cut,
     and no wheel-owning or receiver-spawning workloads. Everything
     else — and everything at [domains = 1] — is unrestricted. *)
  if t.domains > 1 then begin
    (match t.topology with
    | Duplex d ->
        if not (Sim.Time.is_positive d.one_way_delay) then
          err
            "Spec.build: domains > 1 needs one_way_delay > 0 (the \
             cross-partition lookahead)"
    | Dumbbell _ ->
        err
          "Spec.build: a dumbbell has no partition cut; use duplex or \
           dumbbell_of_dumbbells for domains > 1"
    | Multi_dumbbell m ->
        if m.segments < 2 then
          err
            "Spec.build: domains > 1 needs >= 2 segments (one partition \
             per segment)";
        if not (Sim.Time.is_positive m.core_delay) then
          err
            "Spec.build: domains > 1 needs core_delay > 0 (the \
             cross-partition lookahead)");
    if t.record_trace then
      err
        "Spec.build: record_trace is not supported with domains > 1 (the \
         event ring is one global order)";
    if
      t.faults.forward <> Fm.passthrough || t.faults.reverse <> Fm.passthrough
    then err "Spec.build: fault profiles are not supported with domains > 1";
    List.iteri
      (fun i f ->
        match f.workload with
        | Short_flows _ ->
            err
              "Spec.build: flow %d: short_flows is not supported with \
               domains > 1"
              i
        | Many_flows _ | Bulk _ | Chunked _ | Cbr _ | On_off _ -> ())
      t.flows
  end;
  List.iteri (validate_flow ~pairs:(pairs_of t.topology)) t.flows;
  (* One many_flows flow per spec: the sharded engine array, its
     aggregate collection and the checkpoint image all assume a single
     logical flow population. (Each shard owns its own timer wheel;
     schedulers carry any number of wheels.) *)
  let many =
    List.filter
      (fun f -> match f.workload with Many_flows _ -> true | _ -> false)
      t.flows
  in
  if List.length many > 1 then
    err "Spec.build: at most one many_flows flow per spec";
  (* Every shard needs at least one flow. *)
  match many with
  | [ { workload = Many_flows { flows; _ }; _ } ] ->
      let shards = shards_of t.topology in
      if flows < shards then
        err
          "Spec.build: many_flows needs flows >= segments (%d < %d): the \
           population is sharded into one sub-population per segment"
          flows shards
  | _ -> ()

(* --- compilation -------------------------------------------------------- *)

type net =
  | Net_duplex of Netsim.Topology.Duplex.t
  | Net_multi of Netsim.Topology.Multi_dumbbell.t

type driver =
  | Bulk_driver of Workload.Bulk.t
  | Chunked_driver of Workload.Chunked.t
  | Cbr_driver of Workload.Cbr.t * int
  | On_off_driver of Workload.On_off.t * int
  | Short_driver of Workload.Short_flows.t
  | Many_driver of Workload.Many_flows.t array
      (* one engine per shard: per-segment sub-populations on a chain
         (shard k lives on partition k's scheduler when domains > 1), a
         single shard on the duplex path. The shard layout is a
         function of the topology alone, never of [domains]. *)

type built_flow = {
  fspec : flow;
  index : int;
  flabel : string;
  src : Netsim.Host.t;
  dst : Netsim.Host.t;
  fsrc_part : int;  (* partition owning src (0 on single-domain runs) *)
  fdst_part : int;  (* partition owning dst *)
  mutable driver : driver option;
}

(* The partitioned engine state a [domains > 1] build carries: the
   synchronizer, the worker count to run it with, and the delayed flow
   starts — which become coordinator breaks rather than heap timers, so
   a flow's first packet is injected with every partition clock sitting
   exactly at its start time. *)
type partitioned = {
  psync : Sim.Partition.t;
  pworkers : int;
  mutable pstarts : (Sim.Time.t * built_flow) list; (* flow order *)
}

type built = {
  bspec : t;
  bsched : Sim.Scheduler.t;
  net : net;
  pids : Netsim.Packet.Id_source.source array;
      (* packet-id source per partition; [|ids|] on single-domain runs.
         Ids only label packets (no behavioral consumer), so disjoint
         per-partition counters keep allocation data-race-free without
         perturbing anything observable. *)
  fwd_fault : Fm.t option;
  rev_fault : Fm.t option;
  bflows : built_flow list;
  shared : (int, Tcp.Shared_rss.t) Hashtbl.t;
  line_mbps : float;
  btrace : Trace.t option;
  parts : partitioned option;
}

let sched b = b.bsched
let trace b = b.btrace

let pair_hosts net pair =
  match net with
  | Net_duplex d -> (d.Netsim.Topology.Duplex.a, d.Netsim.Topology.Duplex.b)
  | Net_multi md ->
      (* Pairs 0..segments*pairs-1 stay inside their segment (segment
         s, local pair i at pair = s*pairs + i); the cross_pairs after
         them run left host 0 of segment c to right host 0 of segment
         c+1 across the core. *)
      let segs = md.Netsim.Topology.Multi_dumbbell.segments in
      let per = Array.length segs.(0).Netsim.Topology.Multi_dumbbell.left in
      let base = Array.length segs * per in
      if pair < base then
        ( segs.(pair / per).Netsim.Topology.Multi_dumbbell.left.(pair mod per),
          segs.(pair / per).Netsim.Topology.Multi_dumbbell.right.(pair mod per)
        )
      else
        let c = pair - base in
        ( segs.(c).Netsim.Topology.Multi_dumbbell.left.(0),
          segs.(c + 1).Netsim.Topology.Multi_dumbbell.right.(0) )

(* Partition indices of a pair's (src, dst) hosts under the fixed
   topology-determined cut. (0, 0) on single-domain runs. *)
let pair_parts spec pair =
  if spec.domains <= 1 then (0, 0)
  else
    match spec.topology with
    | Duplex _ -> (0, 1)
    | topo ->
        let m = chain topo in
        let base = m.segments * m.m_pairs in
        if pair < base then (pair / m.m_pairs, pair / m.m_pairs)
        else
          let c = pair - base in
          (c, c + 1)

let src_host b ~pair = fst (pair_hosts b.net pair)
let dst_host b ~pair = snd (pair_hosts b.net pair)

let forward_link b =
  match b.net with
  | Net_duplex d -> d.Netsim.Topology.Duplex.a_to_b
  | Net_multi md ->
      md.Netsim.Topology.Multi_dumbbell.segments.(0)
        .Netsim.Topology.Multi_dumbbell.bottleneck_lr

let reverse_link b =
  match b.net with
  | Net_duplex d -> d.Netsim.Topology.Duplex.b_to_a
  | Net_multi md ->
      md.Netsim.Topology.Multi_dumbbell.segments.(0)
        .Netsim.Topology.Multi_dumbbell.bottleneck_rl

let fault_models b = (b.fwd_fault, b.rev_fault)

let tcp_senders b =
  List.filter_map
    (fun bf ->
      match bf.driver with
      | Some (Bulk_driver t) -> Some (Workload.Bulk.sender t)
      | Some (Chunked_driver t) -> Some (Workload.Chunked.sender t)
      | _ -> None)
    b.bflows

let many_flows_engines b =
  List.concat_map
    (fun bf ->
      match bf.driver with
      | Some (Many_driver shards) -> Array.to_list shards
      | _ -> [])
    b.bflows

let config_of_flow (p : Tcp.Policy.t) (f : flow) =
  let pace_ss_gain, pace_ca_gain =
    match p.Tcp.Policy.pace_gains with
    | Some gains -> gains
    | None ->
        ( Tcp.Config.default.Tcp.Config.pace_ss_gain,
          Tcp.Config.default.Tcp.Config.pace_ca_gain )
  in
  {
    Tcp.Config.default with
    Tcp.Config.local_congestion = f.local_congestion;
    pace_ss_gain;
    pace_ca_gain;
    delayed_ack = f.delayed_ack;
    use_sack = f.use_sack;
    pacing = f.pacing;
    slow_start_restart = f.slow_start_restart;
    max_rto =
      (match f.max_rto with
      | Some rto -> rto
      | None -> Tcp.Config.default.Tcp.Config.max_rto);
  }

(* One shared controller per sending host, created when the first
   shared flow on that host starts (so its sampling clock begins before
   any member connection exists, matching the legacy E11 assembly). *)
let controller_for b bf =
  let key = Netsim.Host.id bf.src in
  match Hashtbl.find_opt b.shared key with
  | Some c -> c
  | None ->
      (* The controller samples the sending host's IFQ, so it lives on
         that host's scheduler — the build scheduler on single-domain
         runs, the owning partition's otherwise. *)
      let c =
        Tcp.Shared_rss.create
          (Netsim.Host.scheduler bf.src)
          ~ifq:(Netsim.Host.ifq bf.src)
          ?config:bf.fspec.restricted ()
      in
      Hashtbl.add b.shared key c;
      c

(* Derived RNG stream for stochastic workloads (on_off, short_flows);
   offset keeps flow streams clear of the chaos fault streams 0xFA1/2
   and the small indices sweeps use for their cells. *)
let flow_rng b index =
  Sim.Rng.of_seed
    (Sim.Rng.derive_seed ~root:b.bspec.seed ~stream:(0x5F10 + index))

let start_flow b bf =
  let f = bf.fspec in
  let flow_id = bf.index + 1 in
  let ids = b.pids.(bf.fsrc_part) in
  let rx_ids = b.pids.(bf.fdst_part) in
  let bundle () = bundle_for ~shared:(fun () -> controller_for b bf) f in
  let driver =
    match f.workload with
    | Bulk { bytes } ->
        let ({ Tcp.Policy.slow_start; cong_avoid; _ } as p) = bundle () in
        Bulk_driver
          (Workload.Bulk.start ~src:bf.src ~dst:bf.dst ~flow:flow_id
             ~ids ~rx_ids ~config:(config_of_flow p f)
             ~slow_start ~cong_avoid ?bytes ())
    | Chunked { chunk_bytes; interval; chunks } ->
        let ({ Tcp.Policy.slow_start; cong_avoid; _ } as p) = bundle () in
        Chunked_driver
          (Workload.Chunked.start ~src:bf.src ~dst:bf.dst ~flow:flow_id
             ~ids ~rx_ids ~chunk_bytes ~interval ?chunks
             ~config:(config_of_flow p f) ~slow_start ~cong_avoid ())
    | Cbr { rate; packet_bytes; stop_at } ->
        Cbr_driver
          ( Workload.Cbr.start ~host:bf.src ~dst:(Netsim.Host.id bf.dst)
              ~flow:flow_id ~ids ~rate ~packet_bytes ?stop_at (),
            packet_bytes )
    | On_off { peak_rate; mean_on; mean_off; packet_bytes } ->
        On_off_driver
          ( Workload.On_off.start ~host:bf.src ~dst:(Netsim.Host.id bf.dst)
              ~flow:flow_id ~ids ~rng:(flow_rng b bf.index) ~peak_rate
              ~mean_on ~mean_off ~packet_bytes (),
            packet_bytes )
    | Short_flows { arrival_rate; mean_size; pareto_shape; stop_at } ->
        (* Each mouse gets a fresh instance of both halves. *)
        Short_driver
          (Workload.Short_flows.start ~src:bf.src ~dst:bf.dst ~ids
             ~rng:(flow_rng b bf.index) ~arrival_rate ~mean_size ~pareto_shape
             ~first_flow:(10_000 + (1_000 * bf.index))
             ~config:(config_of_flow (bundle ()) f)
             ~policy:bundle ?stop_at ())
    | Many_flows
        { flows; arrival_rate; arrival_pareto_shape; mean_size;
          size_pareto_shape } ->
        (* The fluid engine models the bottleneck itself, derived from
           the spec topology: a duplex path's egress IFQ, or a chain
           segment's bottleneck buffer. The slow-start phase is the
           classic doubling round, so only the bundle's congestion
           avoidance applies. *)
        let capacity_bytes_per_sec, base_rtt, buffer_packets, red =
          match b.bspec.topology with
          | Duplex d ->
              ( d.rate /. 8.,
                Sim.Time.mul_int d.one_way_delay 2,
                d.ifq_capacity,
                d.ifq_red_ecn )
          | topo ->
              (* Each shard abstracts its own segment's bottleneck. *)
              let m = chain topo in
              ( m.m_bottleneck_rate /. 8.,
                Sim.Time.mul_int
                  (Sim.Time.add
                     (Sim.Time.mul_int m.m_access_delay 2)
                     m.m_bottleneck_delay)
                  2,
                m.m_buffer_packets,
                m.m_red )
        in
        (* Flows and arrival rate split evenly over the shards (thinned
           Poisson arrivals stay Poisson); the remainder lands on the
           low shards. *)
        let shards = shards_of b.bspec.topology in
        let sched_of k =
          match b.parts with
          | Some p -> Sim.Partition.scheduler p.psync k
          | None -> b.bsched
        in
        Many_driver
          (Array.init shards (fun k ->
               (* Shard 0 keeps the legacy seed and arrivals stream, so
                  single-shard topologies replay PR 7 runs byte-for-
                  byte. Sibling shards derive their engine seed (rooting
                  the per-row loss streams) and arrivals stream from
                  dedicated ranges clear of every reserved stream id
                  (0x5F10+i flows, 0xFA1/2 faults, 0x9A40+i partitions,
                  0x6D0000+idx per-row losses). *)
               let seed, rng =
                 if k = 0 then (b.bspec.seed, flow_rng b bf.index)
                 else
                   ( Sim.Rng.derive_seed ~root:b.bspec.seed
                       ~stream:(0x6E0000 + (bf.index * 0x100) + k),
                     Sim.Rng.of_seed
                       (Sim.Rng.derive_seed ~root:b.bspec.seed
                          ~stream:(0x6F0000 + (bf.index * 0x100) + k)) )
               in
               Workload.Many_flows.start ~sched:(sched_of k) ~rng ~seed
                 ~cong_avoid:(bundle ()).Tcp.Policy.cong_avoid
                 {
                   Workload.Many_flows.default_params with
                   Workload.Many_flows.flows =
                     (flows / shards)
                     + (if k < flows mod shards then 1 else 0);
                   arrival_rate =
                     Option.map
                       (fun r -> r /. float_of_int shards)
                       arrival_rate;
                   arrival_pareto_shape;
                   mean_size;
                   size_pareto_shape;
                   capacity_bytes_per_sec;
                   base_rtt;
                   buffer_packets;
                   red;
                 }))
  in
  bf.driver <- Some driver;
  (* Single-connection TCP drivers get the run tracer; Short_flows mice
     churn through internal senders and stay untraced (their aggregate
     behaviour shows up in the link/IFQ records). *)
  match b.btrace with
  | None -> ()
  | Some tr -> (
      match driver with
      | Bulk_driver t -> Tcp.Sender.set_tracer (Workload.Bulk.sender t) (Some tr)
      | Chunked_driver t ->
          Tcp.Sender.set_tracer (Workload.Chunked.sender t) (Some tr)
      | Cbr_driver _ | On_off_driver _ | Short_driver _ | Many_driver _ -> ())

let default_label spec i (f : flow) =
  let base =
    match f.policy with
    | Some p -> p
    | None -> fst (Tcp.Policy.split f.slow_start)
  in
  match f.label with
  | Some l -> l
  | None ->
      if List.length spec.flows <= 1 then base
      else Printf.sprintf "%s-%d" base i

let build spec =
  validate spec;
  (* The partition structure is a function of the topology alone —
     [domains] only caps how many worker domains execute it, so any
     [domains > 1] run of the same spec replays the identical partition
     build (and therefore the identical trajectory). *)
  let nparts =
    if spec.domains <= 1 then 1
    else
      match spec.topology with
      | Duplex _ -> 2
      | topo -> (chain topo).segments
  in
  (* Partition 0 always carries the spec seed, so every stream derived
     from it (the duplex loss stream, derived workload streams) lands on
     the values the single-scheduler build draws; sibling partitions get
     independent derived seeds that nothing in the allowed spec shapes
     consumes. *)
  let psync =
    if nparts = 1 then None
    else
      Some
        (Sim.Partition.create ~parts:nparts ~seed_of:(fun i ->
             if i = 0 then spec.seed
             else Sim.Rng.derive_seed ~root:spec.seed ~stream:(0x9A40 + i)))
  in
  let net, cut =
    match (spec.topology, psync) with
    | Duplex d, None ->
        let sched = Sim.Scheduler.create ~seed:spec.seed () in
        ( Net_duplex
            (Netsim.Topology.Duplex.create sched ~rate:d.rate
               ~one_way_delay:d.one_way_delay ~ifq_capacity:d.ifq_capacity
               ~loss_rate:d.loss_rate ?ifq_red_ecn:d.ifq_red_ecn ()),
          Netsim.Topology.Cut.single )
    | Duplex d, Some p ->
        let path, cut =
          Netsim.Topology.Duplex.create_split
            (Sim.Partition.scheduler p 0)
            (Sim.Partition.scheduler p 1)
            ~rate:d.rate ~one_way_delay:d.one_way_delay
            ~ifq_capacity:d.ifq_capacity ~loss_rate:d.loss_rate
            ?ifq_red_ecn:d.ifq_red_ecn ()
        in
        (Net_duplex path, cut)
    | topo, _ ->
        let m = chain topo in
        let sched_of =
          match psync with
          | Some p -> Sim.Partition.scheduler p
          | None ->
              let sched = Sim.Scheduler.create ~seed:spec.seed () in
              fun _ -> sched
        in
        let md =
          Netsim.Topology.Multi_dumbbell.create ~sched_of
            ~segments:m.segments ~pairs:m.m_pairs
            ~access_rate:m.m_access_rate ~access_delay:m.m_access_delay
            ~bottleneck_rate:m.m_bottleneck_rate
            ~bottleneck_delay:m.m_bottleneck_delay ~core_rate:m.core_rate
            ~core_delay:m.core_delay ~buffer_packets:m.m_buffer_packets
            ~ifq_capacity:m.m_host_ifq_capacity ?red:m.m_red
            ~cross_pairs:m.cross_pairs ()
        in
        ( Net_multi md,
          match psync with
          | Some _ -> md.Netsim.Topology.Multi_dumbbell.cut
          | None -> Netsim.Topology.Cut.single )
  in
  let bsched =
    match psync with
    | Some p -> Sim.Partition.scheduler p 0
    | None -> (
        match net with
        | Net_duplex d -> Netsim.Host.scheduler d.Netsim.Topology.Duplex.a
        | Net_multi md ->
            Netsim.Host.scheduler
              md.Netsim.Topology.Multi_dumbbell.segments.(0)
                .Netsim.Topology.Multi_dumbbell.left.(0))
  in
  let pids = Array.init nparts (fun _ -> Netsim.Packet.Id_source.create ()) in
  (* Rewire each boundary link of the cut as a channel endpoint: the
     transmit side hands finished packets to the channel (due = now +
     propagation delay, the channel's lookahead), and the destination
     partition replays delivery — sink dispatch, delivered counter — at
     [due] on its own scheduler. *)
  (match psync with
  | None -> ()
  | Some p ->
      List.iter
        (fun (bd : Netsim.Topology.Cut.boundary) ->
          let link = bd.Netsim.Topology.Cut.link in
          let ch =
            Sim.Partition.channel p ~src:bd.Netsim.Topology.Cut.src
              ~dst:bd.Netsim.Topology.Cut.dst
              ~lookahead:(Netsim.Topology.Cut.lookahead bd)
              ~handler:(fun _due pkt -> Netsim.Link.remote_deliver link pkt)
          in
          Netsim.Link.set_remote link (fun ~due pkt ->
              Sim.Partition.Channel.send ch ~due pkt))
        cut.Netsim.Topology.Cut.boundaries);
  (* A passthrough profile gets no model: an installed passthrough hook
     is behaviourally identical to none (no RNG draws, zero extra
     delay), so skipping keeps unfaulted specs byte-identical to the
     legacy assemblies while sparing the hook dispatch. *)
  let make_fault ~stream profile link =
    if profile = Fm.passthrough then None
    else begin
      let m =
        Fm.create
          ~rng:
            (Sim.Rng.of_seed
               (Sim.Rng.derive_seed ~root:spec.seed ~stream))
          profile
      in
      Fm.install m link;
      Some m
    end
  in
  let line_mbps =
    match spec.topology with
    | Duplex d -> Sim.Units.rate_to_mbps d.rate
    | topo -> Sim.Units.rate_to_mbps (chain topo).m_bottleneck_rate
  in
  let btrace =
    if spec.record_trace then
      Some (Trace.create ~capacity:spec.trace_capacity ())
    else None
  in
  let parts =
    Option.map
      (fun p -> { psync = p; pworkers = spec.domains; pstarts = [] })
      psync
  in
  let b0 =
    {
      bspec = spec;
      bsched;
      net;
      pids;
      fwd_fault = None;
      rev_fault = None;
      bflows = [];
      shared = Hashtbl.create 4;
      line_mbps;
      btrace;
      parts;
    }
  in
  (* Streams 0xFA1/0xFA2: the chaos harness's historical fault streams,
     preserved so serialized chaos artifacts replay byte-identically. *)
  let fwd_fault = make_fault ~stream:0xFA1 spec.faults.forward (forward_link b0) in
  let rev_fault = make_fault ~stream:0xFA2 spec.faults.reverse (reverse_link b0) in
  let bflows =
    List.mapi
      (fun i f ->
        let src, dst = pair_hosts net f.pair in
        let fsrc_part, fdst_part = pair_parts spec f.pair in
        {
          fspec = f;
          index = i;
          flabel = default_label spec i f;
          src;
          dst;
          fsrc_part;
          fdst_part;
          driver = None;
        })
      spec.flows
  in
  let b = { b0 with fwd_fault; rev_fault; bflows } in
  (* Trace source ids: 1/2 for the forward/reverse pipe, host ids for
     IFQ and NIC records, flow ids for sender records. Installing the
     tracer draws no randomness and schedules nothing, so a traced run
     performs exactly the model transitions of an untraced one. *)
  (match btrace with
  | None -> ()
  | Some _ ->
      Sim.Scheduler.set_tracer bsched btrace;
      Netsim.Link.set_tracer (forward_link b) ~src:1 btrace;
      Netsim.Link.set_tracer (reverse_link b) ~src:2 btrace;
      for pair = 0 to pairs_of spec.topology - 1 do
        let src, dst = pair_hosts net pair in
        List.iter
          (fun host ->
            let id = Netsim.Host.id host in
            Netsim.Ifq.set_tracer (Netsim.Host.ifq host) ~src:id btrace;
            Netsim.Nic.set_tracer (Netsim.Host.nic host) ~src:id btrace)
          [ src; dst ]
      done);
  List.iter
    (fun bf ->
      if Sim.Time.compare bf.fspec.start_at Sim.Time.zero = 0 then
        start_flow b bf
      else
        match b.parts with
        | None ->
            ignore
              (Sim.Scheduler.at b.bsched bf.fspec.start_at (fun () ->
                   start_flow b bf))
        | Some p ->
            (* Delayed starts become coordinator breaks: the flow is
               injected with every partition quiesced at its start time
               rather than from one partition's heap. *)
            p.pstarts <- p.pstarts @ [ (bf.fspec.start_at, bf) ])
    bflows;
  b

(* --- execution ---------------------------------------------------------- *)

let mss_f = float_of_int Tcp.Config.default.Tcp.Config.mss

type instrument = {
  ibf : built_flow;
  stalls_s : Sim.Stats.Series.t;
  cwnd_s : Sim.Stats.Series.t;
  ifq_s : Sim.Stats.Series.t;
  throughput_s : Sim.Stats.Series.t;
  srtt_s : Sim.Stats.Series.t;
  mutable last_bytes : int;
}

let empty_instrument bf =
  {
    ibf = bf;
    stalls_s = Sim.Stats.Series.create ~name:"send_stalls" ();
    cwnd_s = Sim.Stats.Series.create ~name:"cwnd_segments" ();
    ifq_s = Sim.Stats.Series.create ~name:"ifq_packets" ();
    throughput_s = Sim.Stats.Series.create ~name:"throughput_mbps" ();
    srtt_s = Sim.Stats.Series.create ~name:"srtt_ms" ();
    last_bytes = 0;
  }

let sender_receiver bf =
  match bf.driver with
  | Some (Bulk_driver t) ->
      Some (Workload.Bulk.sender t, Workload.Bulk.receiver t)
  | Some (Chunked_driver t) ->
      Some (Workload.Chunked.sender t, Workload.Chunked.receiver t)
  | _ -> None

(* Aggregates over a sharded many-flows engine array: sums for counters
   and delivered bytes, an active-weighted mean for the window, and the
   arithmetic mean across shards for the per-segment fluid queues (each
   shard models its own segment's bottleneck, so "the" queue reading is
   the typical segment's). A single shard degenerates to the engine's
   own values exactly. *)
let mf_sum f shards = Array.fold_left (fun acc e -> acc +. f e) 0. shards

let mf_mean f shards =
  if Array.length shards = 0 then 0.
  else mf_sum f shards /. float_of_int (Array.length shards)

let mf_mean_cwnd shards =
  let active =
    Array.fold_left (fun a e -> a + Workload.Many_flows.active e) 0 shards
  in
  if active = 0 then 0.
  else
    Array.fold_left
      (fun acc e ->
        acc
        +. Workload.Many_flows.mean_cwnd_segments e
           *. float_of_int (Workload.Many_flows.active e))
      0. shards
    /. float_of_int active

(* [now] is the sampling instant: the build scheduler's clock on
   single-domain runs, the (identical) barrier time on partitioned ones
   — where reading one partition's clock for a flow living on another
   would be ill-defined mid-epoch. *)
let sample_instrument b ~now inst =
  match inst.ibf.driver with
  | Some (Many_driver shards) ->
      (* Aggregate gauges of the fluid engine: mean window, fluid
         backlog, and goodput over the sample window. *)
      Sim.Stats.Series.add inst.cwnd_s now (mf_mean_cwnd shards);
      Sim.Stats.Series.add inst.ifq_s now
        (mf_mean Workload.Many_flows.queue_packets shards);
      let bytes =
        int_of_float (mf_sum Workload.Many_flows.delivered_bytes shards)
      in
      let window_mbps =
        float_of_int (8 * (bytes - inst.last_bytes))
        /. Sim.Time.to_sec b.bspec.sample_period /. 1e6
      in
      inst.last_bytes <- bytes;
      Sim.Stats.Series.add inst.throughput_s now window_mbps
  | _ -> (
      match sender_receiver inst.ibf with
      | None -> ()
      | Some (sender, receiver) ->
      Sim.Stats.Series.add inst.stalls_s now
        (float_of_int (Tcp.Sender.send_stalls sender));
      Sim.Stats.Series.add inst.cwnd_s now (Tcp.Sender.cwnd sender /. mss_f);
      Sim.Stats.Series.add inst.ifq_s now
        (float_of_int (Netsim.Ifq.occupancy (Netsim.Host.ifq inst.ibf.src)));
      let bytes = Tcp.Receiver.bytes_received receiver in
      let window_mbps =
        float_of_int (8 * (bytes - inst.last_bytes))
        /. Sim.Time.to_sec b.bspec.sample_period /. 1e6
      in
      inst.last_bytes <- bytes;
      Sim.Stats.Series.add inst.throughput_s now window_mbps;
      (match Tcp.Sender.srtt sender with
          | Some s -> Sim.Stats.Series.add inst.srtt_s now (Sim.Time.to_ms s)
          | None -> ()))

let is_tcp_workload = function
  | Bulk _ | Chunked _ -> true
  | Cbr _ | On_off _ | Short_flows _ | Many_flows _ -> false

(* Flows whose series and goodput report TCP dynamics: the
   single-connection drivers plus the aggregate many-flows engine. The
   latter stays out of {!is_tcp_workload} so the unified registry only
   registers web100 variables for connections that actually carry a
   kernel instrument set. *)
let tcp_series_workload = function
  | Bulk _ | Chunked _ | Many_flows _ -> true
  | Cbr _ | On_off _ | Short_flows _ -> false

let time_to_90pct line_mbps throughput_s =
  let times = Sim.Stats.Series.times throughput_s in
  let values = Sim.Stats.Series.values throughput_s in
  let rec search i =
    if i >= Array.length values then None
    else if values.(i) >= 0.9 *. line_mbps then Some (Sim.Time.to_sec times.(i))
    else search (i + 1)
  in
  search 0

let collect_flow b inst =
  let bf = inst.ibf in
  let duration = b.bspec.duration in
  let ifq = Netsim.Host.ifq bf.src in
  let zero =
    {
      label = bf.flabel;
      goodput_mbps = 0.;
      utilization = 0.;
      send_stalls = 0;
      congestion_signals = 0;
      retransmits = 0;
      timeouts = 0;
      final_cwnd_segments = 0.;
      mean_ifq = Netsim.Ifq.mean_occupancy ifq;
      peak_ifq = Netsim.Ifq.peak_occupancy ifq;
      ce_marks = 0;
      completion = None;
      time_to_90pct_util = None;
      stalls_series = inst.stalls_s;
      cwnd_series = inst.cwnd_s;
      ifq_series = inst.ifq_s;
      throughput_series = inst.throughput_s;
      srtt_series = inst.srtt_s;
    }
  in
  let udp_goodput packets packet_bytes =
    float_of_int (8 * packets * packet_bytes) /. Sim.Time.to_sec duration /. 1e6
  in
  match bf.driver with
  | None -> zero
  | Some (Bulk_driver _ | Chunked_driver _) ->
      let sender, receiver, completion =
        match bf.driver with
        | Some (Bulk_driver t) ->
            ( Workload.Bulk.sender t,
              Workload.Bulk.receiver t,
              Workload.Bulk.completion_time t )
        | Some (Chunked_driver t) ->
            (Workload.Chunked.sender t, Workload.Chunked.receiver t, None)
        | d ->
            err
              "Spec: flow %S: collecting TCP results from a %s driver — \
               the driver no longer matches its declared workload"
              bf.flabel
              (match d with
              | None -> "missing"
              | Some (Cbr_driver _) -> "cbr"
              | Some (On_off_driver _) -> "on_off"
              | Some (Short_driver _) -> "short_flows"
              | Some (Many_driver _) -> "many_flows"
              | Some (Bulk_driver _ | Chunked_driver _) -> "tcp")
      in
      let goodput = Tcp.Receiver.goodput_mbps receiver ~at:duration in
      {
        zero with
        goodput_mbps = goodput;
        utilization = goodput /. b.line_mbps;
        send_stalls = Tcp.Sender.send_stalls sender;
        congestion_signals = Tcp.Sender.congestion_signals sender;
        retransmits = Tcp.Sender.retransmits sender;
        timeouts = Tcp.Sender.timeouts sender;
        final_cwnd_segments = Tcp.Sender.cwnd sender /. mss_f;
        ce_marks = Tcp.Receiver.ce_marks_seen receiver;
        completion;
        time_to_90pct_util = time_to_90pct b.line_mbps inst.throughput_s;
      }
  | Some (Cbr_driver (t, packet_bytes)) ->
      let goodput = udp_goodput (Workload.Cbr.packets_sent t) packet_bytes in
      {
        zero with
        goodput_mbps = goodput;
        utilization = goodput /. b.line_mbps;
        send_stalls = Workload.Cbr.packets_stalled t;
      }
  | Some (On_off_driver (t, packet_bytes)) ->
      let goodput =
        udp_goodput (Workload.On_off.packets_sent t) packet_bytes
      in
      { zero with goodput_mbps = goodput; utilization = goodput /. b.line_mbps }
  | Some (Short_driver t) ->
      let bytes =
        List.fold_left
          (fun acc (c : Workload.Short_flows.completed) -> acc + c.size)
          0
          (Workload.Short_flows.completions t)
      in
      let goodput =
        float_of_int (8 * bytes) /. Sim.Time.to_sec duration /. 1e6
      in
      { zero with goodput_mbps = goodput; utilization = goodput /. b.line_mbps }
  | Some (Many_driver shards) ->
      let goodput =
        mf_sum (fun e -> Workload.Many_flows.goodput_mbps e ~duration) shards
      in
      {
        zero with
        goodput_mbps = goodput;
        (* Aggregate goodput over aggregate capacity: the shards sum
           over one bottleneck per segment. *)
        utilization =
          goodput /. (b.line_mbps *. float_of_int (Array.length shards));
        congestion_signals =
          Array.fold_left
            (fun a e -> a + Workload.Many_flows.loss_events e)
            0 shards;
        final_cwnd_segments = mf_mean_cwnd shards;
        (* The engines' fluid backlog, not the host IFQ (which the
           abstract flows never traverse); the mean across the
           per-segment shards. *)
        mean_ifq = mf_mean Workload.Many_flows.avg_queue_packets shards;
        peak_ifq = mf_mean Workload.Many_flows.queue_packets shards;
      }

(* One namespace over everything the run can report, in a fixed order:
   web100 per-connection variables (conn/<label>/<Var>, flow order, each
   flow's in Tcp.Sender.kis order), then pipe counters
   (link/<dir>/<what>), then per-host soft-component gauges
   (host/<id>/<what>, pair order). Registration rejects duplicates, so
   two flows sharing a label fail loudly instead of silently misaligning
   every exported column after them. *)
let build_registry b =
  let reg = Trace.Registry.create () in
  List.iter
    (fun bf ->
      if is_tcp_workload bf.fspec.workload then
        List.iter
          (fun (var, read) ->
            (* The sender may not exist yet (start_at timer pending);
               probes resolve it at sampling time and read 0 until. *)
            Trace.Registry.register reg
              ~name:(Printf.sprintf "conn/%s/%s" bf.flabel var)
              (fun () ->
                match sender_receiver bf with
                | Some (sender, _) -> read sender
                | None -> 0.))
          Tcp.Sender.kis)
    b.bflows;
  let link_metrics dir link =
    List.iter
      (fun (what, probe) ->
        Trace.Registry.register reg
          ~name:(Printf.sprintf "link/%s/%s" dir what)
          probe)
      [
        ("delivered", fun () -> float_of_int (Netsim.Link.delivered link));
        ("lost", fun () -> float_of_int (Netsim.Link.lost link));
        ("duplicated", fun () -> float_of_int (Netsim.Link.duplicated link));
        ("in_flight", fun () -> float_of_int (Netsim.Link.in_flight link));
      ]
  in
  link_metrics "forward" (forward_link b);
  link_metrics "reverse" (reverse_link b);
  (* Cross-segment pairs reuse hosts that already appeared under their
     own segment pair, so register each host once (first occurrence). *)
  let seen_hosts = Hashtbl.create 16 in
  for pair = 0 to pairs_of b.bspec.topology - 1 do
    let src, dst = pair_hosts b.net pair in
    List.iter
      (fun host ->
        let id = Netsim.Host.id host in
        if not (Hashtbl.mem seen_hosts id) then begin
        Hashtbl.add seen_hosts id ();
        let ifq = Netsim.Host.ifq host in
        let nic = Netsim.Host.nic host in
        List.iter
          (fun (what, probe) ->
            Trace.Registry.register reg
              ~name:(Printf.sprintf "host/%d/%s" id what)
              probe)
          [
            ("ifq_occupancy", fun () -> float_of_int (Netsim.Ifq.occupancy ifq));
            ("ifq_stalls", fun () -> float_of_int (Netsim.Ifq.stalls ifq));
            ("nic_tx_packets", fun () -> float_of_int (Netsim.Nic.tx_packets nic));
            ("nic_tx_bytes", fun () -> float_of_int (Netsim.Nic.tx_bytes nic));
          ]
        end)
      [ src; dst ]
  done;
  reg

let jain = function
  | [] -> 1.
  | xs ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0. xs in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
      if s2 <= 0. then 1. else s *. s /. (n *. s2)

(* --- checkpoint / resume ------------------------------------------------ *)

type checkpoint = {
  snapshot_path : string;
  interval : Sim.Time.t; (* simulated time between snapshots *)
  should_stop : unit -> bool; (* polled after each snapshot *)
}

exception Drained of { at : Sim.Time.t; snapshot : string }

(* Snapshotability is a property of what lives in the event heap: heap
   events are closures and cannot serialize, so a checkpointable run
   must keep the heap empty of model state — everything dynamic lives
   in the many-flows engine (SoA flow table + timer wheel + fluid
   scalars), and the only heap entries are the re-registerable series
   samplers. That rules out per-packet senders, delayed flow starts,
   fault schedules and the trace ring. *)
let snapshot_support_error t =
  if t.domains > 1 then
    Some "partitioned runs (domains > 1) spread state over several heaps"
  else if t.record_trace then
    Some "record_trace is on (the event ring is not serializable)"
  else if
    t.faults.forward <> Fm.passthrough || t.faults.reverse <> Fm.passthrough
  then Some "fault profiles schedule unserializable heap events"
  else
    match t.flows with
    | [ { workload = Many_flows _; start_at; _ } ]
      when Sim.Time.compare start_at Sim.Time.zero = 0 ->
        None
    | _ ->
        Some
          "only specs whose single flow is a many_flows workload starting \
           at t=0 keep all run state out of the event heap"

let snapshot_supported t = snapshot_support_error t = None

let check_snapshot_supported t =
  match snapshot_support_error t with
  | None -> ()
  | Some why -> err "Spec: %S cannot checkpoint/resume: %s" t.name why

(* The single many_flows flow's shard array. Shard 0 keeps the legacy
   ["mf."] snapshot prefix (pre-sharding images restore unchanged);
   siblings get ["mf.<k>."]. *)
let the_engines b =
  let shards =
    List.filter_map
      (fun bf ->
        match bf.driver with Some (Many_driver a) -> Some a | _ -> None)
      b.bflows
  in
  match shards with
  | [ a ] when Array.length a > 0 -> a
  | _ -> err "Spec: checkpoint requires exactly one started many_flows flow"

let shard_prefix k = if k = 0 then "mf." else Printf.sprintf "mf.%d." k

let save_series w name s =
  Sim.Snapshot.put_int_array w (name ^ ".t")
    (Array.map Sim.Time.to_ns_int (Sim.Stats.Series.times s));
  Sim.Snapshot.put_float_array w (name ^ ".v") (Sim.Stats.Series.values s)

let restore_series r name s =
  let ts = Sim.Snapshot.get_int_array r (name ^ ".t") in
  let vs = Sim.Snapshot.get_float_array r (name ^ ".v") in
  if Array.length ts <> Array.length vs then
    raise (Sim.Snapshot.Corrupt ("Spec: ragged series " ^ name));
  Array.iteri
    (fun i t -> Sim.Stats.Series.add s (Sim.Time.of_ns_int t) vs.(i))
    ts

let instrument_sections i inst =
  let p name = Printf.sprintf "inst.%d.%s" i name in
  [
    (p "stalls", inst.stalls_s);
    (p "cwnd", inst.cwnd_s);
    (p "ifq", inst.ifq_s);
    (p "throughput", inst.throughput_s);
    (p "srtt", inst.srtt_s);
  ]

(* The snapshot embeds the canonical spec JSON so a resume against the
   wrong spec fails loudly instead of continuing a different scenario,
   and copies raw engine state without integrating the fluid queue to
   the snapshot time — polling here would split one integration
   interval in two and diverge from an unbroken run. *)
let save_checkpoint ~identity b instruments ~path =
  let w = Sim.Snapshot.writer () in
  Sim.Snapshot.put_bytes w "spec.identity" (Lazy.force identity);
  Sim.Snapshot.put_int w "spec.clock_ns"
    (Sim.Time.to_ns_int (Sim.Scheduler.now b.bsched));
  Sim.Snapshot.put_i64 w "spec.sched_rng"
    (Sim.Rng.state (Sim.Scheduler.rng b.bsched));
  Array.iteri
    (fun k eng -> Workload.Many_flows.save ~prefix:(shard_prefix k) eng w)
    (the_engines b);
  List.iteri
    (fun i inst ->
      Sim.Snapshot.put_int w
        (Printf.sprintf "inst.%d.last_bytes" i)
        inst.last_bytes;
      List.iter
        (fun (name, s) -> save_series w name s)
        (instrument_sections i inst))
    instruments;
  Sim.Snapshot.save w ~path

(* Restore into a freshly-built spec, before samplers are registered.
   Build-time state (initial wheel arms, RNG draws, free-list order) is
   fully overwritten, so the restored image — not construction history —
   determines every subsequent transition. *)
let restore_checkpoint ~identity b instruments ~path =
  check_snapshot_supported b.bspec;
  let r = Sim.Snapshot.load ~path in
  let stored = Sim.Snapshot.get_bytes r "spec.identity" in
  if stored <> Lazy.force identity then
    err "Spec: snapshot %s was taken from a different spec" path;
  Sim.Rng.set_state
    (Sim.Scheduler.rng b.bsched)
    (Sim.Snapshot.get_i64 r "spec.sched_rng");
  (* Engine before clock: the restore drains the fresh build's wheel
     arms (which sit earlier than the snapshot time) and re-arms from
     the snapshot, so [restore_clock]'s no-earlier-pending-event guard
     sees only post-snapshot timers. *)
  Array.iteri
    (fun k eng -> Workload.Many_flows.restore ~prefix:(shard_prefix k) eng r)
    (the_engines b);
  Sim.Scheduler.restore_clock b.bsched
    (Sim.Time.of_ns_int (Sim.Snapshot.get_int r "spec.clock_ns"));
  List.iteri
    (fun i inst ->
      inst.last_bytes <-
        Sim.Snapshot.get_int r (Printf.sprintf "inst.%d.last_bytes" i);
      List.iter
        (fun (name, s) -> restore_series r name s)
        (instrument_sections i inst))
    instruments

(* Partitioned execution. Nothing instrumentation-related lives in any
   partition's heap: delayed flow starts and series samples are
   coordinator breaks, executed with every partition quiesced exactly at
   the break time — all events below it fired, all cross-partition
   messages drained, every clock equal. At a shared instant, starts fire
   before samples, mirroring the single-domain heap order (start timers
   enter the heap at build time, before the samplers are registered). *)
let run_partitioned b p instruments =
  let dur_ns = Sim.Time.to_ns_int b.bspec.duration in
  let per_ns = Sim.Time.to_ns_int b.bspec.sample_period in
  let sampling =
    b.bspec.record_series
    && List.exists
         (fun inst -> tcp_series_workload inst.ibf.fspec.workload)
         instruments
  in
  let sample_grid =
    if not sampling then []
    else begin
      let acc = ref [] in
      let k = ref 1 in
      while !k * per_ns <= dur_ns do
        acc := Sim.Time.of_ns_int (!k * per_ns) :: !acc;
        incr k
      done;
      List.rev !acc
    end
  in
  let breaks = List.map fst p.pstarts @ sample_grid in
  let on_break now =
    List.iter
      (fun (at, bf) -> if Sim.Time.compare at now = 0 then start_flow b bf)
      p.pstarts;
    if sampling && Sim.Time.to_ns_int now mod per_ns = 0 then
      List.iter
        (fun inst ->
          if tcp_series_workload inst.ibf.fspec.workload then
            sample_instrument b ~now inst)
        instruments
  in
  Sim.Partition.run p.psync ~until:b.bspec.duration ~workers:p.pworkers
    ~breaks ~on_break ()

let execute_core ?checkpoint ~resume ~identity b =
  (match b.parts with
  | Some _ when checkpoint <> None || resume <> None ->
      err "Spec: checkpoint/resume is not supported with domains > 1"
  | _ -> ());
  (match checkpoint with
  | Some ck when Sim.Time.(ck.interval <= Sim.Time.zero) ->
      err "Spec: checkpoint interval must be positive"
  | Some _ -> check_snapshot_supported b.bspec
  | None -> ());
  let instruments = List.map empty_instrument b.bflows in
  let resumed =
    match resume with
    | None -> None
    | Some path ->
        restore_checkpoint ~identity b instruments ~path;
        Some path
  in
  let registry, metrics_acc =
    match b.parts with
    | Some p ->
        run_partitioned b p instruments;
        (None, ref [])
    | None ->
        if b.bspec.record_series then
          List.iter
            (fun inst ->
              if tcp_series_workload inst.ibf.fspec.workload then begin
                (* On resume the sampler restarts at the first multiple of
                   the period strictly after the restored clock: occurrences
                   at or before the checkpoint already fired (and sit in the
                   restored series), and [run ~until] is boundary-inclusive. *)
                let start =
                  match resumed with
                  | None -> None
                  | Some _ ->
                      let now_ns =
                        Sim.Time.to_ns_int (Sim.Scheduler.now b.bsched)
                      in
                      let per = Sim.Time.to_ns_int b.bspec.sample_period in
                      Some (Sim.Time.of_ns_int (((now_ns / per) + 1) * per))
                in
                ignore
                  (Sim.Scheduler.every b.bsched ?start b.bspec.sample_period
                     (fun () ->
                       sample_instrument b
                         ~now:(Sim.Scheduler.now b.bsched)
                         inst))
              end)
            instruments;
        (* The metrics sampler is registered after the legacy per-flow
           instruments so that runs without [record_trace] perform the exact
           event-queue operation sequence they always did. Probes only read
           state, so the extra timer never perturbs the model. *)
        let registry = Option.map (fun _ -> build_registry b) b.btrace in
        let metrics_acc = ref [] in
        (match registry with
        | None -> ()
        | Some reg ->
            ignore
              (Sim.Scheduler.every b.bsched b.bspec.sample_period (fun () ->
                   let now = Sim.Time.to_sec (Sim.Scheduler.now b.bsched) in
                   metrics_acc :=
                     (now, Trace.Registry.sample reg) :: !metrics_acc)));
        (match checkpoint with
        | None -> Sim.Scheduler.run ~until:b.bspec.duration b.bsched
        | Some ck ->
            (* Run in interval-sized slices. [run ~until:t1; run ~until:t2]
               is equivalent to [run ~until:t2], so slicing (and therefore
               where checkpoints land) never changes the simulation — only
               what survives a kill. No snapshot at the final boundary: the
               run is complete, its outputs are the artifact. *)
            let duration = b.bspec.duration in
            let rec slice t0 =
              let next = Sim.Time.min duration (Sim.Time.add t0 ck.interval) in
              Sim.Scheduler.run ~until:next b.bsched;
              if Sim.Time.(next < duration) then begin
                save_checkpoint ~identity b instruments ~path:ck.snapshot_path;
                if ck.should_stop () then
                  raise (Drained { at = next; snapshot = ck.snapshot_path })
                else slice next
              end
            in
            slice (Sim.Scheduler.now b.bsched));
        (registry, metrics_acc)
  in
  let results = List.map (collect_flow b) instruments in
  let tcp_goodputs =
    List.filter_map
      (fun (bf, r) ->
        if tcp_series_workload bf.fspec.workload then Some r.goodput_mbps
        else None)
      (List.combine b.bflows results)
  in
  let pair0_ifq =
    match b.bflows with
    | bf :: _ -> Netsim.Host.ifq bf.src
    | [] -> Netsim.Host.ifq (fst (pair_hosts b.net 0))
  in
  let router_drops =
    match b.net with
    | Net_duplex _ -> 0
    | Net_multi md ->
        Array.fold_left
          (fun acc (s : Netsim.Topology.Multi_dumbbell.segment) ->
            acc
            + Netsim.Router.dropped s.Netsim.Topology.Multi_dumbbell.router_l
            + Netsim.Router.dropped s.Netsim.Topology.Multi_dumbbell.router_r)
          0 md.Netsim.Topology.Multi_dumbbell.segments
  in
  {
    results;
    path =
      {
        aggregate_goodput_mbps = List.fold_left ( +. ) 0. tcp_goodputs;
        jain_index = jain tcp_goodputs;
        queue_mean = Netsim.Ifq.mean_occupancy pair0_ifq;
        queue_peak = Netsim.Ifq.peak_occupancy pair0_ifq;
        router_drops;
      };
    trace = b.btrace;
    metrics =
      Option.map
        (fun reg ->
          {
            metric_names = Trace.Registry.names reg;
            samples = List.rev !metrics_acc;
          })
        registry;
    resume_from = resumed;
  }

(* --- JSON --------------------------------------------------------------- *)

(* Each JSON object of a spec is described once: its members in output
   order, each with a key, a kind, a default (none: the key is required)
   and a getter, plus the function that builds the value from the
   members, in the same order. [to_json], [of_json] and every object's
   set of legal keys are read off that description. Decoding is strict:
   an object refuses a key outside its set (keys that start with '_'
   are free, for comments), and every error names the key's path, as in
   [flows[0].pair]. *)
module Codec = struct
  type _ kind =
    | Int : int kind  (** an integral number within ±2^53 *)
    | Float : float kind  (** a finite number *)
    | Str : string kind
    | Bool : bool kind
    | Decimal : int kind  (** an int written as a decimal string *)
    | Time : Sim.Time.t kind
        (** a member of this kind (or of [Opt Time]) is keyed
            [<key>_ns], integer nanoseconds and the spelling written,
            or [<key>_s], float seconds; never both *)
    | Opt : 'a kind -> 'a option kind  (** [null] is [None] *)
    | Items : 'a kind -> 'a list kind
    | Record : ('a, 'a) obj -> 'a kind
    | Tagged : string option * 'a case list -> 'a kind
        (** the object's ["kind"] key (default: the string) picks the
            case *)
    | Conv : 'b kind * ('a -> 'b) * ('b -> ('a, string) result) -> 'a kind

  and ('r, 'a) member = {
    key : string;
    secs_key : string option;  (** [<key>_s], for a duration *)
    kind : 'a kind;
    default : 'a option;
    get : 'r -> 'a;
  }

  (* Members read from ['r]; ['k] is the type of the function that
     builds ['v] from their values. *)
  and ('r, 'k, 'v) members =
    | [] : ('r, 'v, 'v) members
    | ( :: ) :
        ('r, 'a) member * ('r, 'k, 'v) members
        -> ('r, 'a -> 'k, 'v) members

  and ('r, 'v) obj =
    | Obj : {
        members : ('r, 'k, 'v) members;
        make : 'k;
        keys : string list;
      }
        -> ('r, 'v) obj

  (* A case of a tagged object; inline records travel as tuples. *)
  and 'v case =
    | Case : { tag : string; proj : 'v -> 'r option; obj : ('r, 'v) obj }
        -> 'v case

  let rec is_time : type a. a kind -> bool = function
    | Time -> true
    | Opt k -> is_time k
    | _ -> false

  let mem ?default key kind get =
    if is_time kind then
      { key = key ^ "_ns"; secs_key = Some (key ^ "_s"); kind; default; get }
    else { key; secs_key = None; kind; default; get }

  let rec keys : type r k v. (r, k, v) members -> string list = function
    | [] -> []
    | m :: ms -> (m.key :: Option.to_list m.secs_key) @ keys ms

  let record make members = Record (Obj { members; make; keys = keys members })

  let case tag proj make members =
    let obj = Obj { members; make; keys = "kind" :: keys members } in
    Case { tag; proj; obj }

  (* --- encoding --- *)

  let rec write : type a. a kind -> a -> Json.t =
   fun kind v ->
    match kind with
    | Int -> Json.Number (float_of_int v)
    | Float -> Json.Number v
    | Str -> Json.String v
    | Bool -> Json.Bool v
    | Decimal -> Json.String (string_of_int v)
    | Time -> Json.Number (float_of_int (Sim.Time.to_ns_int v))
    | Opt k -> ( match v with None -> Json.Null | Some v -> write k v)
    | Items k -> Json.List (List.map (write k) v)
    | Record o -> Json.Obj (write_members o v)
    | Tagged (_, cases) ->
        Option.get
          (List.find_map
             (fun (Case c) ->
               Option.map
                 (fun r ->
                   Json.Obj
                     (("kind", Json.String c.tag) :: write_members c.obj r))
                 (c.proj v))
             cases)
    | Conv (k, enc, _) -> write k (enc v)

  and write_members : type r v. (r, v) obj -> r -> (string * Json.t) list =
   fun (Obj o) r ->
    let rec go : type k. (r, k, v) members -> (string * Json.t) list =
      function
      | [] -> []
      | m :: ms -> (m.key, write m.kind (m.get r)) :: go ms
    in
    go o.members

  (* --- decoding --- *)

  (* Where a value sits; rendered only when an error names it. *)
  type path = Top | Key of path * string | At of path * int

  exception Bad of string

  let rec render = function
    | Top -> ""
    | Key (Top, k) -> k
    | Key (p, k) -> render p ^ "." ^ k
    | At (p, i) -> Printf.sprintf "%s[%d]" (render p) i

  let fail p fmt =
    Printf.ksprintf
      (fun m -> raise (Bad (if p = Top then m else render p ^ ": " ^ m)))
      fmt

  let rec expected : type a. a kind -> string = function
    | Int -> "an integer"
    | Float | Time -> "a number"
    | Str -> "a string"
    | Bool -> "true or false"
    | Decimal -> "a decimal string (a JSON number cannot hold every int)"
    | Opt k -> expected k ^ " or null"
    | Items _ -> "a list"
    | Record _ | Tagged _ -> "an object"
    | Conv (k, _, _) -> expected k

  (* A double holds every integer up to 2^53, and no longer past it. *)
  let integral p f ~what =
    if Float.is_integer f && Float.abs f <= 0x1p53 then int_of_float f
    else fail p "%g is not %s within ±2^53" f what

  let decimal p s =
    let digits =
      if String.starts_with ~prefix:"-" s then
        String.sub s 1 (String.length s - 1)
      else s
    in
    let is_digit c = c >= '0' && c <= '9' in
    match int_of_string_opt s with
    | Some n when String.for_all is_digit digits -> n
    | _ -> fail p "%S is not a decimal integer" s

  let free key = String.starts_with ~prefix:"_" key

  (* [List.assoc_opt] by string equality rather than polymorphic
     compare: decoding is part of every run's setup. *)
  let rec find key : (string * Json.t) list -> Json.t option = function
    | [] -> None
    | (k, v) :: fields -> if String.equal k key then Some v else find key fields

  (* [used] members were found among [fields]; any other key that is not
     free is unknown, or given twice. *)
  let check_keys p fields used keys =
    let given =
      List.fold_left (fun n (k, _) -> if free k then n else n + 1) 0 fields
    in
    if given > used then
      let unknown (k, _) = not (free k || List.mem k keys) in
      match List.find_opt unknown fields with
      | Some (k, _) ->
          fail (Key (p, k)) "unknown key (known: %s)" (String.concat ", " keys)
      | None ->
          let k, _ =
            List.find
              (fun (k, _) ->
                List.length (List.filter (fun (k', _) -> k' = k) fields) > 1)
              fields
          in
          fail (Key (p, k)) "given twice"

  let rec read : type a. path -> secs:bool -> a kind -> Json.t -> a =
   fun p ~secs kind j ->
    match (kind, j) with
    | Int, Json.Number f -> integral p f ~what:"an integer"
    | Float, Json.Number f when Float.is_finite f -> f
    | Float, Json.Number f -> fail p "%g is not finite" f
    | Str, Json.String s -> s
    | Bool, Json.Bool b -> b
    | Decimal, Json.String s -> decimal p s
    | Time, Json.Number f when secs ->
        (* The bound of the [_ns] spelling, which is what [write] gives
           back: a double holds integer ns exactly only up to 2^53. *)
        let ns = Float.round (f *. 1e9) in
        if Float.abs ns <= 0x1p53 then Sim.Time.of_ns_int (int_of_float ns)
        else fail p "%g s is outside ±2^53 ns (about 104 days)" f
    | Time, Json.Number f ->
        Sim.Time.of_ns_int (integral p f ~what:"a whole number of ns")
    | Opt _, Json.Null -> None
    | Opt k, j -> Some (read p ~secs k j)
    | Items k, Json.List items ->
        List.mapi (fun i j -> read (At (p, i)) ~secs k j) items
    | Record o, Json.Obj fields -> read_members p fields o 0
    | Tagged (default, cases), Json.Obj fields -> (
        let tag, used =
          match (find "kind" fields, default) with
          | Some (Json.String tag), _ -> (tag, 1)
          | Some _, _ -> fail (Key (p, "kind")) "expected a string"
          | None, Some tag -> (tag, 0)
          | None, None -> fail (Key (p, "kind")) "missing"
        in
        match List.find_opt (fun (Case c) -> c.tag = tag) cases with
        | Some (Case c) -> read_members p fields c.obj used
        | None ->
            fail (Key (p, "kind")) "unknown kind %S (known: %s)" tag
              (String.concat ", " (List.map (fun (Case c) -> c.tag) cases)))
    | Conv (k, _, dec), j -> (
        match dec (read p ~secs k j) with
        | Ok v -> v
        | Error e -> fail p "%s" e)
    | _ -> fail p "expected %s" (expected kind)

  and read_members :
      type r v. path -> (string * Json.t) list -> (r, v) obj -> int -> v =
   fun p fields (Obj o) used ->
    let used = ref used in
    let rec fill : type k. (r, k, v) members -> k -> v =
     fun ms make ->
      match ms with
      | [] -> make
      | m :: ms -> fill ms (make (read_member p fields used m))
    in
    let v = fill o.members o.make in
    check_keys p fields !used o.keys;
    v

  and read_member :
      type r a.
      path -> (string * Json.t) list -> int ref -> (r, a) member -> a =
   fun p fields used m ->
    let secs = match m.secs_key with None -> None | Some k -> find k fields in
    match (find m.key fields, secs, m.secs_key) with
    | Some _, Some _, Some k ->
        fail (Key (p, k)) "%s is given too; use one spelling" m.key
    | None, Some j, Some k ->
        incr used;
        read (Key (p, k)) ~secs:true m.kind j
    | Some j, _, _ ->
        incr used;
        read (Key (p, m.key)) ~secs:false m.kind j
    | None, _, _ -> (
        match m.default with
        | Some d -> d
        | None -> fail (Key (p, m.key)) "missing")

  let decode kind j =
    match read Top ~secs:false kind j with
    | v -> Ok v
    | exception Bad e -> Error e
end

(* A rate travels in Mbit/s. *)
let mbps =
  Codec.(Conv (Float, Sim.Units.rate_to_mbps, fun f -> Ok (Sim.Units.mbps f)))

let red_codec =
  let open Netsim.Queue_disc in
  let open Codec in
  record
    (fun min_th max_th max_p weight -> { min_th; max_th; max_p; weight })
    [
      mem "min_th" Float (fun r -> r.min_th);
      mem "max_th" Float (fun r -> r.max_th);
      mem "max_p" Float (fun r -> r.max_p);
      mem "weight" Float (fun r -> r.weight);
    ]

let ge_codec =
  let open Codec in
  record
    (fun p_gb p_bg loss_good loss_bad -> { Fm.p_gb; p_bg; loss_good; loss_bad })
    [
      mem "p_gb" Float (fun g -> g.Fm.p_gb);
      mem "p_bg" Float (fun g -> g.Fm.p_bg);
      mem "loss_good" Float (fun g -> g.Fm.loss_good);
      mem "loss_bad" Float (fun g -> g.Fm.loss_bad);
    ]

let jitter_codec =
  let open Codec in
  record
    (fun prob max_extra -> { Fm.prob; max_extra })
    [
      mem "prob" Float (fun j -> j.Fm.prob);
      mem "max_extra" Time (fun j -> j.Fm.max_extra);
    ]

let event_codec =
  let open Codec in
  let outage =
    case "outage"
      (function Fm.Outage { start; stop } -> Some (start, stop) | _ -> None)
      (fun start stop -> Fm.Outage { start; stop })
      [ mem "start" Time fst; mem "stop" Time snd ]
  and delay_step =
    case "delay_step"
      (function Fm.Delay_step { at; extra } -> Some (at, extra) | _ -> None)
      (fun at extra -> Fm.Delay_step { at; extra })
      [ mem "at" Time fst; mem "extra" Time snd ]
  in
  Tagged (None, [ outage; delay_step ])

let profile_codec =
  let open Codec in
  record
    (fun ge reorder duplicate schedule ->
      { Fm.ge; reorder; duplicate; schedule })
    [
      mem "ge" (Opt ge_codec) ~default:None (fun p -> p.Fm.ge);
      mem "reorder" (Opt jitter_codec) ~default:None (fun p -> p.Fm.reorder);
      mem "duplicate" (Opt jitter_codec) ~default:None (fun p ->
          p.Fm.duplicate);
      mem "schedule" (Items event_codec) ~default:Fm.passthrough.Fm.schedule
        (fun p -> p.Fm.schedule);
    ]

let faults_codec =
  let open Codec in
  record
    (fun forward reverse -> { forward; reverse })
    [
      mem "forward" profile_codec ~default:Fm.passthrough (fun f -> f.forward);
      mem "reverse" profile_codec ~default:Fm.passthrough (fun f -> f.reverse);
    ]

(* Each topology kind keeps its own defaults. *)
let topology_codec =
  let open Codec in
  let dd = default_duplex and mb100 = Sim.Units.mbps 100. in
  let ms = Sim.Time.ms in
  let duplex =
    case "duplex"
      (function Duplex d -> Some d | _ -> None)
      (fun rate one_way_delay ifq_capacity loss_rate ifq_red_ecn ->
        Duplex { rate; one_way_delay; ifq_capacity; loss_rate; ifq_red_ecn })
      [
        mem "rate_mbps" mbps ~default:dd.rate (fun d -> d.rate);
        mem "one_way_delay" Time ~default:dd.one_way_delay (fun d ->
            d.one_way_delay);
        mem "ifq_capacity" Int ~default:dd.ifq_capacity (fun d ->
            d.ifq_capacity);
        mem "loss_rate" Float ~default:dd.loss_rate (fun d -> d.loss_rate);
        mem "ifq_red_ecn" (Opt red_codec) ~default:None (fun d ->
            d.ifq_red_ecn);
      ]
  and dumbbell =
    case "dumbbell"
      (function Dumbbell d -> Some d | _ -> None)
      (fun pairs access_rate access_delay bottleneck_rate bottleneck_delay
           buffer_packets host_ifq_capacity red ->
        Dumbbell
          { pairs; access_rate; access_delay; bottleneck_rate;
            bottleneck_delay; buffer_packets; host_ifq_capacity; red })
      [
        mem "pairs" Int ~default:2 (fun d -> d.pairs);
        mem "access_rate_mbps" mbps ~default:mb100 (fun d -> d.access_rate);
        mem "access_delay" Time ~default:(ms 1) (fun d -> d.access_delay);
        mem "bottleneck_rate_mbps" mbps ~default:mb100 (fun d ->
            d.bottleneck_rate);
        mem "bottleneck_delay" Time ~default:(ms 28) (fun d ->
            d.bottleneck_delay);
        mem "buffer_packets" Int ~default:250 (fun d -> d.buffer_packets);
        mem "ifq_capacity" Int ~default:100 (fun d -> d.host_ifq_capacity);
        mem "red" (Opt red_codec) ~default:None (fun d -> d.red);
      ]
  and chain =
    case "dumbbell_of_dumbbells"
      (function Multi_dumbbell m -> Some m | _ -> None)
      (fun segments m_pairs m_access_rate m_access_delay m_bottleneck_rate
           m_bottleneck_delay core_rate core_delay m_buffer_packets
           m_host_ifq_capacity m_red cross_pairs ->
        Multi_dumbbell
          { segments; m_pairs; m_access_rate; m_access_delay;
            m_bottleneck_rate; m_bottleneck_delay; core_rate; core_delay;
            m_buffer_packets; m_host_ifq_capacity; m_red; cross_pairs })
      [
        mem "segments" Int ~default:2 (fun m -> m.segments);
        mem "pairs" Int ~default:2 (fun m -> m.m_pairs);
        mem "access_rate_mbps" mbps ~default:mb100 (fun m -> m.m_access_rate);
        mem "access_delay" Time ~default:(ms 1) (fun m -> m.m_access_delay);
        mem "bottleneck_rate_mbps" mbps ~default:mb100 (fun m ->
            m.m_bottleneck_rate);
        mem "bottleneck_delay" Time ~default:(ms 10) (fun m ->
            m.m_bottleneck_delay);
        mem "core_rate_mbps" mbps ~default:(Sim.Units.mbps 400.) (fun m ->
            m.core_rate);
        mem "core_delay" Time ~default:(ms 5) (fun m -> m.core_delay);
        mem "buffer_packets" Int ~default:250 (fun m -> m.m_buffer_packets);
        mem "ifq_capacity" Int ~default:100 (fun m -> m.m_host_ifq_capacity);
        mem "red" (Opt red_codec) ~default:None (fun m -> m.m_red);
        mem "cross_pairs" Int ~default:0 (fun m -> m.cross_pairs);
      ]
  in
  Tagged (Some "duplex", [ duplex; dumbbell; chain ])

let workload_codec =
  let open Codec in
  let bulk =
    case "bulk"
      (function Bulk { bytes } -> Some bytes | _ -> None)
      (fun bytes -> Bulk { bytes })
      [ mem "bytes" (Opt Int) ~default:None Fun.id ]
  and chunked =
    case "chunked"
      (function
        | Chunked { chunk_bytes; interval; chunks } ->
            Some (chunk_bytes, interval, chunks)
        | _ -> None)
      (fun chunk_bytes interval chunks ->
        Chunked { chunk_bytes; interval; chunks })
      [
        mem "chunk_bytes" Int (fun (b, _, _) -> b);
        mem "interval" Time (fun (_, i, _) -> i);
        mem "chunks" (Opt Int) ~default:None (fun (_, _, n) -> n);
      ]
  and cbr =
    case "cbr"
      (function
        | Cbr { rate; packet_bytes; stop_at } ->
            Some (rate, packet_bytes, stop_at)
        | _ -> None)
      (fun rate packet_bytes stop_at -> Cbr { rate; packet_bytes; stop_at })
      [
        mem "rate_mbps" mbps (fun (r, _, _) -> r);
        mem "packet_bytes" Int ~default:1000 (fun (_, b, _) -> b);
        mem "stop_at" (Opt Time) ~default:None (fun (_, _, s) -> s);
      ]
  and on_off =
    case "on_off"
      (function
        | On_off { peak_rate; mean_on; mean_off; packet_bytes } ->
            Some (peak_rate, mean_on, mean_off, packet_bytes)
        | _ -> None)
      (fun peak_rate mean_on mean_off packet_bytes ->
        On_off { peak_rate; mean_on; mean_off; packet_bytes })
      [
        mem "peak_rate_mbps" mbps (fun (r, _, _, _) -> r);
        mem "mean_on" Time (fun (_, t, _, _) -> t);
        mem "mean_off" Time (fun (_, _, t, _) -> t);
        mem "packet_bytes" Int ~default:1000 (fun (_, _, _, b) -> b);
      ]
  and short_flows =
    case "short_flows"
      (function
        | Short_flows { arrival_rate; mean_size; pareto_shape; stop_at } ->
            Some (arrival_rate, mean_size, pareto_shape, stop_at)
        | _ -> None)
      (fun arrival_rate mean_size pareto_shape stop_at ->
        Short_flows { arrival_rate; mean_size; pareto_shape; stop_at })
      [
        mem "arrival_rate" Float (fun (r, _, _, _) -> r);
        mem "mean_size" Int ~default:30_720 (fun (_, s, _, _) -> s);
        mem "pareto_shape" Float ~default:1.2 (fun (_, _, a, _) -> a);
        mem "stop_at" (Opt Time) ~default:None (fun (_, _, _, s) -> s);
      ]
  and many_flows =
    case "many_flows"
      (function
        | Many_flows
            { flows; arrival_rate; arrival_pareto_shape; mean_size;
              size_pareto_shape } ->
            Some
              ( flows, arrival_rate, arrival_pareto_shape, mean_size,
                size_pareto_shape )
        | _ -> None)
      (fun flows arrival_rate arrival_pareto_shape mean_size
           size_pareto_shape ->
        Many_flows
          { flows; arrival_rate; arrival_pareto_shape; mean_size;
            size_pareto_shape })
      [
        mem "flows" Int ~default:1000 (fun (n, _, _, _, _) -> n);
        mem "arrival_rate" (Opt Float) ~default:None (fun (_, r, _, _, _) -> r);
        mem "arrival_pareto_shape" (Opt Float) ~default:None
          (fun (_, _, a, _, _) -> a);
        mem "mean_size" (Opt Int) ~default:None (fun (_, _, _, s, _) -> s);
        mem "size_pareto_shape" Float ~default:1.2 (fun (_, _, _, _, a) -> a);
      ]
  in
  Tagged
    (Some "bulk", [ bulk; chunked; cbr; on_off; short_flows; many_flows ])

let restricted_codec =
  let open Tcp.Slow_start in
  let open Codec in
  record
    (fun kp ti td setpoint_fraction max_step_segments sample_min_interval ->
      { gains = { Control.Pid.kp; ti; td }; setpoint_fraction;
        max_step_segments; sample_min_interval })
    [
      mem "kp" Float (fun c -> c.gains.Control.Pid.kp);
      (* A P-only controller's ti = infinity is written as null. *)
      mem "ti"
        (Conv
           ( Opt Float,
             (fun ti -> if ti = Float.infinity then None else Some ti),
             fun ti -> Ok (Option.value ti ~default:Float.infinity) ))
        (fun c -> c.gains.ti);
      mem "td" Float (fun c -> c.gains.td);
      mem "setpoint_fraction" Float (fun c -> c.setpoint_fraction);
      mem "max_step_segments" Float (fun c -> c.max_step_segments);
      mem "sample_min_interval" Time (fun c -> c.sample_min_interval);
    ]

let flow_codec =
  let open Codec in
  let d = default_flow and split f = Tcp.Policy.split f.slow_start in
  record
    (fun label pair start_at policy ss restricted shared_rss ca
         local_congestion delayed_ack use_sack pacing slow_start_restart
         max_rto workload ->
      (* The legacy [cong_avoid] key names the avoidance half of
         [slow_start]; "reno" (the default) adds nothing. *)
      let slow_start = if ca = "reno" then ss else ss ^ "+" ^ ca in
      { label; pair; start_at; policy; slow_start; restricted; shared_rss;
        local_congestion; delayed_ack; use_sack; pacing; slow_start_restart;
        max_rto; workload })
    [
      mem "label" (Opt Str) ~default:None (fun (f : flow) -> f.label);
      mem "pair" Int ~default:d.pair (fun f -> f.pair);
      mem "start_at" Time ~default:d.start_at (fun f -> f.start_at);
      mem "policy" (Opt Str) ~default:None (fun f -> f.policy);
      (* [slow_start] goes out as the legacy key pair, so a spec's bytes
         (its snapshot identity) and its default labels never change. *)
      mem "slow_start" Str ~default:d.slow_start (fun f -> fst (split f));
      mem "restricted" (Opt restricted_codec) ~default:None (fun f ->
          f.restricted);
      mem "shared_rss" Bool ~default:d.shared_rss (fun f -> f.shared_rss);
      mem "cong_avoid" Str ~default:"reno" (fun f -> snd (split f));
      mem "local_congestion"
        Tcp.Local_congestion.(Conv (Str, to_string, of_string))
        ~default:d.local_congestion (fun f -> f.local_congestion);
      mem "delayed_ack" (Opt Time) ~default:d.delayed_ack (fun f ->
          f.delayed_ack);
      mem "use_sack" Bool ~default:d.use_sack (fun f -> f.use_sack);
      mem "pacing" Bool ~default:d.pacing (fun f -> f.pacing);
      mem "slow_start_restart" Bool ~default:d.slow_start_restart (fun f ->
          f.slow_start_restart);
      mem "max_rto" (Opt Time) ~default:d.max_rto (fun f -> f.max_rto);
      mem "workload" workload_codec ~default:d.workload (fun f -> f.workload);
    ]

let spec_codec =
  let open Codec in
  let d = default in
  record
    (fun name seed duration sample_period record_series record_trace
         trace_capacity domains topology flows faults ->
      { name; seed; duration; sample_period; record_series; record_trace;
        trace_capacity; domains; topology; flows; faults })
    [
      mem "name" Str ~default:d.name (fun (t : t) -> t.name);
      (* Seeds from [Rng.derive_seed] are 62-bit; a JSON double only
         holds 53, so the seed travels as a decimal string. *)
      mem "seed" Decimal ~default:d.seed (fun t -> t.seed);
      mem "duration" Time ~default:d.duration (fun t -> t.duration);
      mem "sample_period" Time ~default:d.sample_period (fun t ->
          t.sample_period);
      mem "record_series" Bool ~default:d.record_series (fun t ->
          t.record_series);
      mem "record_trace" Bool ~default:d.record_trace (fun t -> t.record_trace);
      mem "trace_capacity" Int ~default:d.trace_capacity (fun t ->
          t.trace_capacity);
      mem "domains" Int ~default:d.domains (fun t -> t.domains);
      mem "topology" topology_codec ~default:d.topology (fun t -> t.topology);
      mem "flows" (Items flow_codec) ~default:d.flows (fun t -> t.flows);
      mem "faults" faults_codec ~default:d.faults (fun t -> t.faults);
    ]

let to_json t = Codec.write spec_codec t
let of_json j = Codec.decode spec_codec j

(* The spec identity a snapshot embeds: the canonical JSON rendering,
   so a resume against a different scenario — or the same scenario with
   one knob changed — fails loudly. Defined here (after [to_json]); the
   checkpoint machinery above takes it as a parameter and renders it
   only when it saves or restores a snapshot. *)
let spec_identity t = Json.to_string (to_json t)

let execute ?checkpoint ?resume_from b =
  execute_core ?checkpoint ~resume:resume_from
    ~identity:(lazy (spec_identity b.bspec)) b

let run ?checkpoint ?resume_from spec =
  execute ?checkpoint ?resume_from (build spec)

let run_batch ?pool specs =
  match pool with
  | None -> List.map (fun s -> run s) specs
  | Some pool ->
      Engine.Pool.map pool ~label:(fun s -> s.name) ~f:(fun s -> run s) specs

(* Per-cell verdicts: a poisoned cell costs one [Error] row, never the
   batch. Sequential runs capture the same way so the CLI's failure
   table is identical at any --jobs. *)
let run_batch_collect ?pool specs =
  match pool with
  | None ->
      List.map
        (fun s ->
          try Ok (run s)
          with e ->
            Error
              {
                Engine.Pool.flabel = s.name;
                fexn = e;
                fbacktrace = Printexc.get_backtrace ();
              })
        specs
  | Some pool ->
      Engine.Pool.map_collect pool
        ~label:(fun s -> s.name)
        ~f:(fun s -> run s)
        specs

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
  "_doc_record_trace": "true attaches the run-wide event tracer (ring of trace_capacity records) and the unified metrics registry; read them back with `rss_sim trace`",
  "record_trace": false,
  "trace_capacity": 65536,
  "_doc_domains": "partition the simulation across N OCaml domains (conservative-lookahead parallel DES); needs a cut-capable topology (duplex or dumbbell_of_dumbbells) and identical artifacts are guaranteed at any value; 1 = the classic single-scheduler engine",
  "domains": 1,
  "_doc_topology": "kind duplex (paper's sender-limited path: rate_mbps, one_way_delay_*, ifq_capacity, loss_rate, ifq_red_ecn), dumbbell (pairs, access_rate_mbps, access_delay_*, bottleneck_rate_mbps, bottleneck_delay_*, buffer_packets, ifq_capacity, red) or dumbbell_of_dumbbells (segments chained through core_rate_mbps/core_delay_* duplex links, plus the dumbbell knobs per segment and cross_pairs flows spanning adjacent segments)",
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
  "_doc_flows": "one entry per flow; pair selects the host pair; slow_start names the flow's congestion control (see `rss_sim list`): a slow-start rule alone (with reno), RULE+AVOIDANCE such as hystart+cubic, or a named bundle; the older key cong_avoid (e.g. cubic) is the same as appending +cubic to slow_start; policy (optional) takes the same names and overrides slow_start; restricted {kp, ti (null: no integral action), td, setpoint_fraction, max_step_segments, sample_min_interval_s} retunes the restricted rules; shared_rss=true steers the flow from a host-wide restricted controller; workload.kind is bulk|chunked|cbr|on_off|short_flows|many_flows (many_flows: N abstract AIMD flows through a fluid bottleneck — flows, arrival_rate flows/s or null for all-at-zero, arrival_pareto_shape or null for Poisson, mean_size bytes or null for persistent, size_pareto_shape)",
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
  "_doc_faults": "Netsim.Fault_model profiles for the data (forward) and ACK (reverse) directions: ge {p_gb,p_bg,loss_good,loss_bad}, reorder/duplicate {prob,max_extra_*}, schedule [{kind:outage,start_*,stop_*} | {kind:delay_step,at_*,extra_*}]",
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
