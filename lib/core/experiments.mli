(** Drivers for every reproduced figure/table (see DESIGN.md §5).

    Each function is purely computational — it runs simulations and
    returns structured results; formatting lives in the bench harness
    and the examples. All runs are deterministic: when a [?pool] is
    given, each independent experiment cell runs as one
    {!Engine.Pool} task and the aggregated results are bit-identical
    to the sequential ([?pool = None]) path. *)

(** Figure 1: cumulative send-stall signals over 25 s, standard Linux
    TCP vs the proposed scheme. *)
module Fig1 : sig
  type t = {
    standard : Spec.flow_result;
    restricted : Spec.flow_result;
    duration : Sim.Time.t;
  }

  val run : ?pool:Engine.Pool.t -> ?duration:Sim.Time.t -> unit -> t
end

(** §4 text claim: throughput improvement of RSS over standard TCP
    (paper: ≈ 40 %). *)
module Table1 : sig
  type row = {
    duration_s : float;
    standard_mbps : float;
    restricted_mbps : float;
    improvement_pct : float;
    standard_stalls : int;
    restricted_stalls : int;
  }

  val run : ?pool:Engine.Pool.t -> ?durations:float list -> unit -> row list
  (** Default durations: 25 s and 60 s. *)
end

(** E2: slow-start variant comparison on the paper's path. *)
module Variants : sig
  val run :
    ?pool:Engine.Pool.t -> ?duration:Sim.Time.t -> unit -> Spec.flow_result list
  (** standard, abc, limited, hystart, restricted — in that order. *)
end

(** E3: throughput vs interface-queue size, standard vs RSS. *)
module Ifq_sweep : sig
  type row = {
    ifq_capacity : int;
    standard : Spec.flow_result;
    restricted : Spec.flow_result;
  }

  val run :
    ?pool:Engine.Pool.t ->
    ?sizes:int list ->
    ?duration:Sim.Time.t ->
    unit ->
    row list
end

(** E4: throughput vs round-trip time (BDP scaling). *)
module Rtt_sweep : sig
  type row = {
    rtt_ms : int;
    standard : Spec.flow_result;
    restricted : Spec.flow_result;
  }

  val run :
    ?pool:Engine.Pool.t ->
    ?rtts_ms:int list ->
    ?duration:Sim.Time.t ->
    unit ->
    row list
end

(** E5: slow-start overshoot loss at a network bottleneck (router
    drops), across link speeds — quantifies §1's "thousands of packets
    dropped in one round-trip". The sender NIC is 1 Gbit/s here, so the
    overshoot lands on the router, outside RSS's sensor: the experiment
    marks the boundary of the mechanism's applicability. *)
module Burst_loss : sig
  type row = {
    bottleneck_mbps : float;
    buffer_packets : int;
    slow_start : string;
    router_drops : int;
    retransmits : int;
    goodput_mbps : float;
  }

  val run :
    ?pool:Engine.Pool.t ->
    ?rates_mbps:float list ->
    ?duration:Sim.Time.t ->
    unit ->
    row list
end

(** E6: controller-tuning ablation. Reports the critical point measured
    by the in-simulation ZN experiment, then compares RSS under several
    gain settings. *)
module Pid_ablation : sig
  type row = {
    label : string;
    gains : Control.Pid.gains;
    result : Spec.flow_result;
  }

  type t = {
    measured : (Control.Tuning.critical_point, string) result;
    rows : row list;
  }

  val run : ?pool:Engine.Pool.t -> ?duration:Sim.Time.t -> unit -> t
end

(** E7: reaction-to-stall ablation under standard slow-start. *)
module Local_cong_ablation : sig
  val run :
    ?pool:Engine.Pool.t ->
    ?duration:Sim.Time.t ->
    unit ->
    (string * Spec.flow_result) list
end

(** E9: gain scheduling — fixed-gain RSS vs the RTT-adaptive variant
    across the RTT sweep that exposed E4's fixed-gain weakness. *)
module Adaptive_gains : sig
  type row = {
    rtt_ms : int;
    standard : Spec.flow_result;
    restricted_fixed : Spec.flow_result;
    restricted_adaptive : Spec.flow_result;
  }

  val run :
    ?pool:Engine.Pool.t ->
    ?rtts_ms:int list ->
    ?duration:Sim.Time.t ->
    unit ->
    row list
end

(** E10: is pacing alone enough? Standard slow-start with sch_fq-style
    pacing vs plain standard vs RSS. Pacing smooths the bursts but not
    the exponential overshoot itself. *)
module Pacing : sig
  val run :
    ?pool:Engine.Pool.t -> ?duration:Sim.Time.t -> unit -> Spec.flow_result list
  (** standard, standard+pacing, restricted, restricted+pacing. *)
end

(** E11: parallel streams (the authors' GridFTP use case) — N flows from
    one host share its interface queue. With RSS, N independent
    controllers regulate the same shared queue. *)
module Parallel_streams : sig
  type row = {
    streams : int;
    slow_start : string;
    aggregate_mbps : float;
    total_stalls : int;
    jain_index : float;       (** across the N flows' goodputs *)
    mean_ifq : float;
  }

  val run :
    ?pool:Engine.Pool.t ->
    ?stream_counts:int list ->
    ?duration:Sim.Time.t ->
    unit ->
    row list
end

(** E12: the road Linux eventually took — RED with ECN marking on the
    {e local} qdisc, so the host signals its own congestion through the
    normal ECN echo path, vs the paper's direct controller. The echo
    costs a full RTT and reacts multiplicatively; the controller reads
    the queue instantly and regulates. *)
module Local_ecn : sig
  type row = {
    label : string;
    result : Spec.flow_result;
    ce_marks : int;
  }

  val run : ?pool:Engine.Pool.t -> ?duration:Sim.Time.t -> unit -> row list
  (** standard/drop-tail, standard/RED+ECN qdisc, restricted/drop-tail. *)
end

(** E13: a disk-paced (chunked) application — the workload that makes
    one transfer accumulate a {e staircase} of send-stalls like the
    paper's Figure 1. With RFC 2861 idle-restart off (a common
    GridFTP-era tuning), every chunk dumps a full old-cwnd burst into
    the IFQ and stalls; restart-on avoids the stall at the price of
    re-running slow-start per chunk; pacing smooths the burst. *)
module Chunked_app : sig
  type row = {
    label : string;
    goodput_mbps : float;
    send_stalls : int;
    congestion_signals : int;
    stalls_series : Sim.Stats.Series.t;
  }

  val run :
    ?pool:Engine.Pool.t ->
    ?chunk_bytes:int ->
    ?interval:Sim.Time.t ->
    ?duration:Sim.Time.t ->
    unit ->
    row list
  (** Defaults: 6 MB chunks every 3 s for 25 s. Rows: standard with
      idle-restart, standard without, standard without + pacing,
      restricted (with restart). *)
end

(** E14: the price of a full queue — one-way delay of delivered data
    under each sender. Holding the IFQ at 90 % buys throughput at the
    cost of a standing queueing delay (proto-bufferbloat); a lower set
    point keeps the throughput and returns most of the latency. *)
module Latency : sig
  type row = {
    label : string;
    goodput_mbps : float;
    mean_delay_ms : float;   (** sender app → receiver, data segments *)
    p99_delay_ms : float;
  }

  val run : ?pool:Engine.Pool.t -> ?duration:Sim.Time.t -> unit -> row list
  (** standard, restricted (0.9 set point), restricted (0.5),
      restricted (0.2). *)
end

(** E8: friendliness — an RSS flow sharing a dumbbell bottleneck with a
    standard Reno flow. *)
module Fairness : sig
  type t = {
    reno_mbps : float;
    restricted_mbps : float;
    jain_index : float;
    reno_vs_reno_jain : float;   (** control: two standard flows *)
  }

  val run : ?pool:Engine.Pool.t -> ?duration:Sim.Time.t -> unit -> t
end
