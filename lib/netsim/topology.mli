(** The two network shapes the simulator builds: the {!Duplex} path and
    the {!Multi_dumbbell} chain, whose one-segment case is the plain
    dumbbell. {!Cut} is the partition structure each admits. *)

(** The topology-cut pass: the partition structure a topology admits.
    [parts] islands of hosts/routers, connected only by the [boundaries]
    links; each boundary link's propagation delay is the lookahead its
    channel grants the conservative synchronizer. The cut depends only
    on the topology — worker count never changes it, which is what makes
    partitioned runs byte-identical at any [--domains]. *)
module Cut : sig
  type boundary = {
    link : Link.t;
    src : int;  (** partition owning the transmit side *)
    dst : int;  (** partition owning the delivery side *)
  }

  type t = { parts : int; boundaries : boundary list }

  val single : t
  (** The trivial cut: one partition, no boundaries. *)

  val lookahead : boundary -> Sim.Time.t
  (** The boundary link's propagation delay. *)
end

(** Two hosts joined by a symmetric duplex pipe. The sender's NIC is the
    path bottleneck, so queueing happens in the sender's IFQ — the
    configuration of the paper's ANL→LBNL testbed. *)
module Duplex : sig
  type t = {
    a : Host.t;
    b : Host.t;
    a_to_b : Link.t;
    b_to_a : Link.t;
  }

  val create :
    Sim.Scheduler.t ->
    rate:Sim.Units.rate ->
    one_way_delay:Sim.Time.t ->
    ifq_capacity:int ->
    ?loss_rate:float ->
    ?ifq_red_ecn:Queue_disc.red_params ->
    unit ->
    t
  (** Node ids: a = 0, b = 1. [loss_rate] applies to the a→b direction
      only (data path). [ifq_red_ecn] switches both hosts' interface
      queues to RED with ECN marking. *)

  val create_split :
    Sim.Scheduler.t ->
    Sim.Scheduler.t ->
    rate:Sim.Units.rate ->
    one_way_delay:Sim.Time.t ->
    ifq_capacity:int ->
    ?loss_rate:float ->
    ?ifq_red_ecn:Queue_disc.red_params ->
    unit ->
    t * Cut.t
  (** [create_split sched_a sched_b ...] is {!create} with host a built
      on [sched_a] and host b on [sched_b], and both pipe directions
      reported as cut boundaries (lookahead = [one_way_delay]). The
      construction order and RNG draws mirror {!create} exactly — the
      forward link's loss stream is split from [sched_a]'s RNG — so with
      equal seeds the 2-partition build replays the single-scheduler
      build's random decisions verbatim. *)
end

(** [segments] dumbbells chained left-to-right through duplex core
    links — the canonical partitionable topology. A dumbbell segment is
    N left hosts — router L — bottleneck — router R — N right hosts;
    left host [i] talks to right host [i], router queues bound the
    bottleneck, and access links are fast relative to it. A plain
    dumbbell is the one-segment chain, which has no core link. Each
    segment is an island (assigned to one partition); the core links
    are the cut and carry their propagation delay as lookahead. Node ids
    are globally unique by segment block: segment [s] uses
    [10000·s + local], with local ids left [i] and right [100+i]. *)
module Multi_dumbbell : sig
  type segment = {
    left : Host.t array;
    right : Host.t array;
    router_l : Router.t;
    router_r : Router.t;
    bottleneck_queue_lr : Queue_disc.t;
    bottleneck_queue_rl : Queue_disc.t;
    bottleneck_lr : Link.t;  (** left→right bottleneck pipe *)
    bottleneck_rl : Link.t;  (** right→left bottleneck pipe *)
  }

  type t = {
    segments : segment array;
    core_lr : Link.t array;
        (** [s]: segment [s]'s right router → segment [s+1]'s left router *)
    core_rl : Link.t array;  (** the reverse direction *)
    cut : Cut.t;
  }

  val create :
    sched_of:(int -> Sim.Scheduler.t) ->
    segments:int ->
    pairs:int ->
    access_rate:Sim.Units.rate ->
    access_delay:Sim.Time.t ->
    bottleneck_rate:Sim.Units.rate ->
    bottleneck_delay:Sim.Time.t ->
    core_rate:Sim.Units.rate ->
    core_delay:Sim.Time.t ->
    buffer_packets:int ->
    ifq_capacity:int ->
    ?red:Queue_disc.red_params ->
    ?cross_pairs:int ->
    unit ->
    t
  (** [sched_of s] supplies segment [s]'s scheduler: pass a constant for
      a single-scheduler build, per-partition schedulers for the
      partitioned one — the construction order (and thus every derived
      RNG stream) is identical either way. [cross_pairs] (default 0, at
      most [segments-1]) additionally routes left host 0 of segment [c]
      to right host 0 of segment [c+1] across the core for
      [c < cross_pairs] — traffic that exercises the partition
      boundary. With [?red], the bottleneck queues run RED instead of
      drop-tail. Raises [Invalid_argument] on out-of-range [segments],
      [pairs] (1..100, past which right and left ids would overlap) or
      [cross_pairs]. *)
end
