(** Flow-level (per-RTT-round) engine for very large flow counts.

    N AIMD windows coupled through one fluid bottleneck queue — the
    abstraction of the mean-field RED literature (Reynier) — with
    per-flow state in a {!Tcp.Flow_table} and round timers on a
    {!Sim.Timer_wheel}: no per-flow closures or heap objects anywhere,
    so a million concurrent flows cost 7 words each (one per table
    column), and neither the timer path nor a round allocates.

    Each flow's round comes once per RTT (base RTT + fluid queueing
    delay): the round's W bytes face Bernoulli loss with the per-packet
    probability of the shared RED curve (or the tail-drop overflow
    fraction), slow start doubles per round, congestion avoidance
    applies the policy's {!Tcp.Cong_avoid.round} fold in place on the
    window column, a lost round its cut, and finite-size flows retire
    when their budget drains. Below the overflow threshold a cohort
    folds up to 128 rows per call, four abreast; the outcome is
    bit-identical to folding one row at a time.

    Round timers are per {e cohort}: the rows re-armed back to back at
    one instant for one due time share one wheel timer, which fires
    them in the order a per-row timer each would have. Firing order and
    outcomes are those of one timer per row, and snapshots list the
    same per-row timer entries; {!Sim.Timer_wheel.pending} on {!wheel}
    counts cohorts.

    Deterministic for a fixed seed: arrivals/sizes from the one [rng]
    stream, per-flow loss draws from row-derived xorshift streams. *)

type t

type params = {
  flows : int;  (** total flows to create *)
  arrival_rate : float option;
      (** flows/s (Poisson unless [arrival_pareto_shape]); [None] = all
          present at time zero *)
  arrival_pareto_shape : float option;
      (** heavy-tailed inter-arrival gaps with the same mean *)
  mean_size : int option;
      (** Pareto-distributed flow size in bytes; [None] = persistent *)
  size_pareto_shape : float;
  mss : int;
  init_cwnd_segments : int;
  capacity_bytes_per_sec : float;  (** bottleneck capacity *)
  base_rtt : Sim.Time.t;  (** two-way propagation delay *)
  buffer_packets : int;  (** fluid backlog clamp *)
  red : Netsim.Queue_disc.red_params option;
      (** RED curve over the line-rate queue EWMA; [None] = tail drop *)
}

val default_params : params
(** 1000 persistent flows on the paper path (100 Mbit/s, 60 ms RTT,
    250-packet buffer, tail drop). *)

val cong_avoid_error : Tcp.Cong_avoid.t -> string option
(** Why the engine cannot run this congestion avoidance, if it cannot:
    every row shares one controller, so its per-ACK rule must keep no
    per-connection state — exactly the algorithms with an in-place
    [on_round] rule (reno, relentless, small-rtt; not cubic, vegas or
    fast). *)

val start :
  sched:Sim.Scheduler.t ->
  rng:Sim.Rng.t ->
  seed:int ->
  ?cong_avoid:Tcp.Cong_avoid.t ->
  params ->
  t
(** Creates the flow table and timer wheel, attaches the wheel to
    [sched] (several engines — e.g. per-segment shards — may share one
    scheduler, each with its own wheel), and launches or schedules the
    flows. The table holds [flows] rows when every flow launches at
    once ([arrival_rate = None]); an arrival-driven engine's starts at
    16 and doubles as arrivals fill it, never past [flows]. [seed]
    roots the per-flow loss streams; [rng] drives arrivals and sizes
    only. The [cong_avoid] bundle (default Reno) is shared by all
    flows. Raises [Invalid_argument] when
    {!cong_avoid_error} rejects it, on non-positive [flows], [capacity],
    [mss], [init_cwnd_segments], [base_rtt] or [arrival_rate]/[mean_size]
    (when given), a [buffer_packets] below 1, or a Pareto shape — for
    arrivals or sizes — at or below 1 (infinite mean). *)

(** {2 Snapshot} — the engine's full dynamic state (fluid queue,
    counters, arrivals-stream position, flow-table columns, pending
    timers with one entry per row, as a per-row wheel would list them)
    in a {!Sim.Snapshot} image, without perturbing the fluid
    integration. Restoring into a freshly-{!start}ed engine built
    from the same params and seed continues the run byte-identically to
    one that was never snapshotted. *)

val save : ?prefix:string -> t -> Sim.Snapshot.writer -> unit
(** Serialize under [prefix] (default ["mf."]; sharded engines use a
    distinct prefix per shard). Does {e not} integrate the fluid queue
    to the current time (that would split an integration interval and
    diverge from an unbroken run). *)

val restore : ?prefix:string -> t -> Sim.Snapshot.reader -> unit
(** Overwrite a freshly-started engine's state in place: drains and
    re-arms the wheel, regrouping consecutive rounds with one due time
    into cohorts (which rewrites the [timer] link of every row with a
    pending round), and rewinds the arrivals stream. Images that stored
    a per-row wheel handle in the [timer] column restore the same way.
    Raises {!Sim.Snapshot.Corrupt} on bad images, including a round
    timer for a free or repeated row. *)

(** {2 Observation} — queue readings integrate the fluid model up to
    the current scheduler time first. *)

val queue_packets : t -> float
val avg_queue_packets : t -> float
(** RED's EWMA of the queue (equals {!queue_packets} under tail drop). *)

val sum_cwnd_bytes : t -> float
(** The running window sum. Only tests read it: the [workload.many-flows]
    qcheck "active, sum_cwnd and round timers match a recount of live
    rows" compares it with a full recount of the table. *)

val mean_cwnd_segments : t -> float
val active : t -> int
val created : t -> int
val completed : t -> int
val delivered_bytes : t -> float
val loss_events : t -> int
val goodput_mbps : t -> duration:Sim.Time.t -> float
val table : t -> Tcp.Flow_table.t

val wheel : t -> Sim.Timer_wheel.t
(** The engine's wheel: at most one arrival timer (kind 1) plus one
    round timer (kind 0) per cohort, whose [flow] is the cohort's first
    row. Each row's {!Tcp.Flow_table.timer} links to the cohort's next
    row, and −1 ends the cohort, so walking the links from every round
    timer reaches every live row exactly once. *)
