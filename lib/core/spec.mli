(** Declarative scenario specifications — the single front door to the
    simulator.

    A {!t} is pure data: a topology, a list of flows, fault profiles
    and instrumentation options. {!build} compiles it into a live
    network (scheduler, hosts, links, connections, workload drivers),
    {!execute} runs the clock and harvests one {!flow_result} per flow
    plus aggregate {!path_stats}. Every experiment — the one-flow
    paper path most sweeps vary, E5's dumbbell, E8's fairness pair,
    E11's parallel streams, E13's chunked source, the chaos harness's
    faulted scenarios — is a value of this type, and {!of_json} makes
    the same scenarios loadable from a file
    ([rss_sim run --spec FILE.json]).

    Running a spec is a pure function of the spec value: results are
    byte-identical across runs, worker counts and replay. *)

(* --- the specification ----------------------------------------------- *)

(** The paper's ANL→LBNL testbed shape: two hosts joined by a
    symmetric pipe whose bottleneck is the sender's NIC, so queueing
    happens in the sender's interface queue. *)
type duplex = Spec_types.duplex = {
  rate : Sim.Units.rate;
  one_way_delay : Sim.Time.t;
  ifq_capacity : int;
  loss_rate : float;  (** random loss on the data direction, 0..1 *)
  ifq_red_ecn : Netsim.Queue_disc.red_params option;
      (** run both hosts' interface queues as RED with ECN marking *)
}

(** N left hosts — router — bottleneck — router — N right hosts; left
    host [i] talks to right host [i]. Queueing happens in the routers'
    bottleneck queues. It is built, and validated, as the one-segment
    {!multi_dumbbell} with the same fields: the same node ids and no
    core link. Having no partition cut, it refuses [domains > 1]. *)
type dumbbell = Spec_types.dumbbell = {
  pairs : int;
  access_rate : Sim.Units.rate;
  access_delay : Sim.Time.t;
  bottleneck_rate : Sim.Units.rate;
  bottleneck_delay : Sim.Time.t;
  buffer_packets : int;          (** router queue depth *)
  host_ifq_capacity : int;
  red : Netsim.Queue_disc.red_params option;
      (** bottleneck queues run RED instead of drop-tail *)
}

(** [segments] dumbbells chained left-to-right through duplex core
    links — the canonical partitionable topology
    ({!Netsim.Topology.Multi_dumbbell}). Regular pairs live inside one
    segment (pair [s·pairs + i] is segment [s]'s pair [i]); the
    [cross_pairs] pairs after them run left host 0 of segment [c] to
    right host 0 of segment [c+1] across the core, exercising the
    partition boundary. *)
type multi_dumbbell = Spec_types.multi_dumbbell = {
  segments : int;
  m_pairs : int;  (** host pairs per segment (1..100) *)
  m_access_rate : Sim.Units.rate;
  m_access_delay : Sim.Time.t;
  m_bottleneck_rate : Sim.Units.rate;
  m_bottleneck_delay : Sim.Time.t;
  core_rate : Sim.Units.rate;  (** inter-segment duplex links *)
  core_delay : Sim.Time.t;
      (** core propagation delay — the lookahead a partitioned run's
          conservative horizon advances by, so keep it the largest delay
          you can justify *)
  m_buffer_packets : int;
  m_host_ifq_capacity : int;
  m_red : Netsim.Queue_disc.red_params option;
  cross_pairs : int;  (** 0..segments-1 boundary-crossing pairs *)
}

type topology = Spec_types.topology =
  | Duplex of duplex
  | Dumbbell of dumbbell
  | Multi_dumbbell of multi_dumbbell

type workload = Spec_types.workload =
  | Bulk of { bytes : int option }
      (** one long TCP transfer; [None] = saturating *)
  | Chunked of {
      chunk_bytes : int;
      interval : Sim.Time.t;
      chunks : int option;  (** [None] = unbounded *)
    }  (** disk-paced TCP source: a chunk every [interval] *)
  | Cbr of {
      rate : Sim.Units.rate;
      packet_bytes : int;
      stop_at : Sim.Time.t option;
    }  (** constant-bit-rate UDP cross traffic *)
  | On_off of {
      peak_rate : Sim.Units.rate;
      mean_on : Sim.Time.t;
      mean_off : Sim.Time.t;
      packet_bytes : int;
    }  (** bursty UDP: exponential on/off, CBR while on *)
  | Short_flows of {
      arrival_rate : float;  (** flows per second *)
      mean_size : int;
      pareto_shape : float;
      stop_at : Sim.Time.t option;
    }  (** Poisson arrivals of Pareto-sized TCP mice *)
  | Many_flows of {
      flows : int;  (** total flows *)
      arrival_rate : float option;
          (** flows per second; [None] = all present at time zero *)
      arrival_pareto_shape : float option;
          (** heavy-tailed inter-arrivals; [None] = Poisson *)
      mean_size : int option;  (** Pareto sizes; [None] = persistent *)
      size_pareto_shape : float;
    }
      (** N abstract AIMD flows through one fluid bottleneck — the
          {!Workload.Many_flows} flow-level engine (SoA flow table +
          timer wheel) rather than per-packet connections, scaling to
          millions of flows. The bottleneck (capacity, base RTT,
          buffer, optional RED) derives from the spec topology; the
          avoidance half of the flow's policy applies to every row. At
          most one per spec (the engine owns the scheduler's timer
          wheel). *)

type flow = Spec_types.flow = {
  label : string option;
      (** [None]: [policy] if set, else the slow-start part of
          [slow_start] (suffixed [-index] when the spec has several
          flows) *)
  pair : int;
      (** endpoint pair: 0 on a duplex; 0..pairs-1 on a dumbbell *)
  start_at : Sim.Time.t;
  policy : string option;
      (** {!Tcp.Policy.by_name} name of the flow's controllers, used
          instead of [slow_start] when set. Mutually exclusive with
          [shared_rss]. *)
  slow_start : string;
      (** {!Tcp.Policy.by_name} name, used when [policy] is [None]:
          ["restricted"] (with Reno), ["hystart+cubic"], ... In JSON it
          travels as the legacy key pair: ["slow_start"] holds the part
          before the ['+'] and ["cong_avoid"] the part after it
          (["reno"] when there is none). *)
  restricted : Tcp.Slow_start.restricted_config option;
      (** override for the restricted rules' PID tuning; validation
          checks kp >= 0, ti > 0 (infinity: no integral action),
          td >= 0, setpoint_fraction in (0, 1], max_step_segments >= 0
          and sample_min_interval > 0 *)
  shared_rss : bool;
      (** steer this flow from its host's shared RSS controller (one
          {!Tcp.Shared_rss.t} per sending host, created at the first
          shared flow), which replaces the slow-start half of
          [slow_start]'s policy *)
  local_congestion : Tcp.Local_congestion.policy;
  delayed_ack : Sim.Time.t option;
  use_sack : bool;
  pacing : bool;
  slow_start_restart : bool;
  max_rto : Sim.Time.t option;  (** [None] = TCP config default *)
  workload : workload;
}

type faults = Spec_types.faults = {
  forward : Netsim.Fault_model.profile;
      (** data direction: duplex a→b, dumbbell left→right bottleneck *)
  reverse : Netsim.Fault_model.profile;  (** ACK direction *)
}

type t = Spec_types.t = {
  name : string;
  seed : int;
  duration : Sim.Time.t;
  sample_period : Sim.Time.t;
  record_series : bool;
      (** sample per-flow time series every [sample_period]; off for
          scalar-only sweeps *)
  record_trace : bool;
      (** attach the run-wide {!Trace.t} event tracer (scheduler,
          links, IFQs, NICs, TCP senders) plus the unified metrics
          registry sampled every [sample_period]; results land in
          {!outcome}[.trace]/[.metrics] *)
  trace_capacity : int;
      (** trace ring size in records; oldest records are overwritten
          beyond it ({!Trace.dropped}) *)
  domains : int;
      (** worker domains for intra-scenario parallelism (default 1,
          at most {!Engine.Pool.max_jobs}). With [domains > 1] the
          topology is cut into partitions — one per duplex endpoint,
          one per dumbbell_of_dumbbells segment — each advancing its
          own scheduler under a conservative horizon derived from the
          cut links' propagation delays. The partition structure
          depends only on the topology, so artifacts are byte-identical
          at every [domains] value; the count only caps how many OCaml
          domains execute partitions. Restricted: needs
          a cut-capable topology with positive boundary delay, no
          [record_trace], no fault profiles, no short_flows workloads
          (many_flows is sharded per segment), no checkpoint/resume. *)
  topology : topology;
  flows : flow list;
  faults : faults;
}

val default_duplex : duplex
(** The paper's path: 100 Mbit/s, 30 ms each way, IFQ 100, no loss. *)

val default_flow : flow
(** One saturating bulk flow from pair 0 at t=0: standard slow-start,
    Reno, [Halve] local congestion, delayed ACKs, SACK, no pacing. *)

val default : t
(** The paper's testbed: [default_duplex] carrying one [default_flow]
    for 25 s, seed 1, 250 ms sampling, no faults. *)

val workload_kinds : string list
(** JSON [kind] names, for CLIs. *)

(* --- results ---------------------------------------------------------- *)

type flow_result = Spec_types.flow_result = {
  label : string;
  goodput_mbps : float;          (** receiver in-order bits / duration *)
  utilization : float;           (** goodput / line rate *)
  send_stalls : int;
  congestion_signals : int;
  retransmits : int;
  timeouts : int;
  final_cwnd_segments : float;
  mean_ifq : float;              (** the flow's source-host IFQ *)
  peak_ifq : float;
  ce_marks : int;
  completion : Sim.Time.t option;
      (** set when a byte budget was given and fully delivered *)
  time_to_90pct_util : float option;
      (** seconds until windowed throughput first reached 90 % of line
          rate; [None] if never (or series recording was off) *)
  stalls_series : Sim.Stats.Series.t;
  cwnd_series : Sim.Stats.Series.t;
  ifq_series : Sim.Stats.Series.t;
  throughput_series : Sim.Stats.Series.t;
  srtt_series : Sim.Stats.Series.t;
}
(** UDP flows report packet-level goodput, zero TCP counters and empty
    series; a [Cbr] flow's [send_stalls] counts IFQ-refused datagrams.
    [Short_flows] reports the summed bytes of completed transfers. *)

type path_stats = Spec_types.path_stats = {
  aggregate_goodput_mbps : float;  (** sum over TCP flows *)
  jain_index : float;              (** fairness over TCP flows *)
  queue_mean : float;  (** pair-0 sender's IFQ, time-averaged packets *)
  queue_peak : float;
  router_drops : int;  (** dumbbell router drops; 0 on a duplex *)
}

type metrics = Spec_types.metrics = {
  metric_names : string list;
      (** registry namespace in registration order — the export column
          order: [conn/<label>/<Var>] (flow order, each flow's
          variables in {!Tcp.Sender.kis} order), then
          [link/<dir>/<what>], then [host/<id>/<what>] *)
  samples : (float * float array) list;
      (** (time_s, values in [metric_names] order), one per
          [sample_period] tick, in time order *)
}

type outcome = Spec_types.outcome = {
  results : flow_result list;
  path : path_stats;
  trace : Trace.t option;  (** the event ring, when [record_trace] *)
  metrics : metrics option;
      (** registry samples, when [record_trace]; raises at build time
          if two flows share a label (duplicate metric names) *)
  resume_from : string option;
      (** the snapshot path this run resumed from, for provenance;
          excluded from {!outcome_to_json} so a resumed run's artifacts
          stay byte-identical to an unbroken run's *)
}

(* --- compile and execute ---------------------------------------------- *)

val validate : t -> unit
(** Raise [Invalid_argument] with the offending field on a malformed
    spec — the checks {!build} performs, without instantiating anything
    ([rss_sim spec --validate]). *)

type built
(** A compiled spec: live network plus started (or scheduled) flows,
    ready to run. *)

val build : t -> built
(** Validate the spec and instantiate the network (on one partition
    when [domains <= 1]), fault models, connections and workload
    drivers. Flows with [start_at = 0] are started immediately, in list
    order; later ones start when {!execute} reaches their start time.
    Raises [Invalid_argument] with the offending field on a
    malformed spec ([duration > 0], [ifq_capacity >= 1], [loss_rate]
    in [0,1], non-negative start times, known policy names, ...). *)

(* --- checkpoint / resume ---------------------------------------------- *)

type checkpoint = Spec_types.checkpoint = {
  snapshot_path : string;
      (** written atomically with a [".prev"] fallback
          ({!Sim.Snapshot.save}) *)
  interval : Sim.Time.t;  (** simulated time between snapshots; > 0 *)
  should_stop : unit -> bool;
      (** polled after each snapshot; [true] raises {!Drained} — the
          graceful-drain and watchdog hook *)
}

exception Drained of { at : Sim.Time.t; snapshot : string }
(** Raised by a checkpointing {!execute} when [should_stop] answered
    [true]: the run stopped cleanly at simulated time [at] with a fresh
    snapshot on disk. Not an error — resume with [?resume_from]. *)

val snapshot_supported : t -> bool
(** Whether this spec can checkpoint/resume. Heap events are closures
    and cannot serialize, so support requires every piece of run state
    to live in serializable structures: the spec's single flow must be
    a [Many_flows] workload starting at t=0 (SoA flow table + timer
    wheel + fluid scalars), with no fault profiles and no
    [record_trace]. [record_series] is fine — series content is part of
    the snapshot, and samples are taken between events, not by them. *)

val execute : ?checkpoint:checkpoint -> ?resume_from:string -> built -> outcome
(** Run the build's partitions to [duration] through
    {!Sim.Partition.run} and collect results, in flow order. Call once.
    Delayed flow starts and samples (the per-flow series when
    [record_series], the metrics registry when [record_trace]) are
    coordinator breaks: at each, every event before it has fired and
    none at it has, so a sample at time t reads the model after every
    event before t and before any at t, at any [domains]. At one
    instant, starts come first, then the series, then the registry.

    With [checkpoint], the run saves a snapshot every [interval] of
    simulated time; slicing never changes the simulation (run-until is
    associative), only what survives a kill. With [resume_from], state
    is restored from the snapshot before running — the continuation is
    byte-identical to a run that was never interrupted. Both raise
    [Invalid_argument] when {!snapshot_supported} is false, and
    {!Sim.Snapshot.Corrupt} on an unreadable snapshot; a snapshot taken
    from a different spec is rejected. *)

val run : ?checkpoint:checkpoint -> ?resume_from:string -> t -> outcome
(** [execute (build t)]. *)

val run_batch : ?pool:Engine.Pool.t -> t list -> outcome list
(** One independent task per spec on [pool] (default
    {!Engine.Pool.sequential}); results in input order, identical for
    any worker count. Every cell runs; raises {!Engine.Pool.Task_failed}
    with the first failing cell's name. *)

(* --- introspection of a built spec (chaos harness hooks) ------------- *)

val sched : built -> Sim.Scheduler.t
(** Partition 0's scheduler, which runs the whole model when [domains
    <= 1]. Events put on it between {!build} and {!execute} fire during
    the run. *)

val trace : built -> Trace.t option
(** The event ring installed at {!build} time when [record_trace];
    [None] otherwise. *)

val src_host : built -> pair:int -> Netsim.Host.t
val dst_host : built -> pair:int -> Netsim.Host.t

val forward_link : built -> Netsim.Link.t
(** Data-direction pipe (duplex a→b; a dumbbell's, or a chain's first
    segment's, left→right bottleneck). *)

val reverse_link : built -> Netsim.Link.t

val tcp_senders : built -> Tcp.Sender.t list
(** Senders of single-connection TCP flows ([Bulk]/[Chunked]) already
    started, in flow order — flows still waiting on [start_at] timers
    are absent until they fire. *)

val many_flows_engines : built -> Workload.Many_flows.t list
(** Started [Many_flows] engines, in flow order (at most one today). *)

val fault_models :
  built -> Netsim.Fault_model.t option * Netsim.Fault_model.t option
(** (forward, reverse) — [None] when that profile was passthrough (no
    model is installed, which is behaviourally identical). *)

(* --- JSON ------------------------------------------------------------- *)

val to_json : t -> Report.Json.t
(** Times serialize as [*_ns] integers, rates as [*_mbps], the seed as
    a decimal string (62-bit seeds do not survive JSON doubles). *)

val of_json : Report.Json.t -> (t, string) result
(** Inverse of {!to_json}. Missing keys fall back to {!default}'s
    values (each topology and workload kind has its own); [*_s]
    float-second keys are accepted anywhere a [*_ns] key is, but not
    both. Keys that start with ['_'] are free (so specs can carry
    ["_doc"] comments); any other unknown key is an error, as are a
    non-integral or out-of-range integer, a duration outside ±2^53 ns
    and a seed that is not a decimal string. Errors name the key's
    path, as in [flows[0].pair]. *)

val outcome_to_json : outcome -> Report.Json.t
(** The scalar fields of each flow's result and the path statistics —
    series travel as CSV, not JSON. *)

val template : unit -> string
(** A commented spec-file template (["_doc"] keys explain each field);
    parses back through {!of_json}. *)
