(** Unidirectional propagation pipe.

    A link models only propagation delay (and optional random corruption
    loss); serialization happens upstream in the {!Nic}. The link itself
    never reorders — reordering, duplication and scheduled impairments
    are injected through the fault hook ({!set_fault_hook}, see
    {!Fault_model.install}).

    Every copy is delivered as if it were an event of its own, keyed
    (due, birth, seq) by its transmit. Undelayed copies (no fault hook,
    or an extra delay of zero) are due in transmit order, so the link
    keeps them in a FIFO with the key {!Sim.Scheduler.reserve}d for
    each at transmit, and only the oldest has a heap entry; delivering
    it arms the next. A copy the fault hook delays keeps an event of
    its own. *)

type t

val create :
  Sim.Scheduler.t ->
  delay:Sim.Time.t ->
  ?loss_rate:float ->
  ?rng:Sim.Rng.t ->
  unit ->
  t
(** [delay] must be non-negative; a negative one raises
    [Invalid_argument] naming the value.

    [loss_rate] is a per-packet independent corruption probability in
    the closed interval [\[0, 1\]] (default 0; 1 is a full blackout).
    Values outside the interval raise [Invalid_argument]. When no [rng]
    is supplied the link derives its own stream from the scheduler-wide
    seed via {!Sim.Scheduler.derive_rng}, so two lossy links created on
    the same scheduler make independent loss decisions while staying
    deterministic in the seed. *)

val connect : t -> (Packet.t -> unit) -> unit
(** Set the receiving endpoint. Must be called before any transmit. *)

val set_remote : t -> (due:Sim.Time.t -> Packet.t -> unit) -> unit
(** Turn the link into a partition-boundary endpoint. Transmit-side
    decisions (taps, drop filter, corruption loss, fault hook) still run
    on the owning partition's scheduler, but each surviving copy is
    handed to [push ~due pkt] — [due] being the absolute delivery time
    [now + delay + extra] — instead of being scheduled locally. The
    destination partition completes the delivery by calling
    {!remote_deliver} at [due]. The link's propagation delay is the
    channel's lookahead, so [due] is always at least one lookahead past
    the transmit time. *)

val remote_deliver : t -> Packet.t -> unit
(** Destination half of a remote link: count the arrival and hand the
    packet to the {!connect}ed sink. Call exactly once per pushed copy,
    at its due time, from the destination partition. *)

val transmit : t -> Packet.t -> unit
(** Begin propagation of [pkt]; it is delivered [delay] later unless
    corrupted, dropped or rescheduled by the fault hook. *)

val add_tap : t -> (Sim.Time.t -> Packet.t -> unit) -> unit
(** Observe every packet entering the link (before any loss decision),
    with the transmit timestamp. Taps run in registration order and
    must not mutate the packet. *)

val set_drop_filter : t -> (Packet.t -> bool) -> unit
(** Deterministic loss injection: packets for which the filter returns
    [true] are dropped (counted in {!lost}). Applied before the random
    [loss_rate]. Only tests call it, to kill one specific segment: the
    [tcp.recovery], [tcp.cwnd-table] and [netsim.components] suites. *)

val set_fault_hook : t -> (Sim.Time.t -> Packet.t -> Sim.Time.t list) -> unit
(** Install the fault-injection hook, consulted for every packet that
    survives the drop filter and the random [loss_rate]. The hook maps
    [(now, pkt)] to the list of extra propagation delays, one delivery
    per element: [[]] drops the packet (counted in {!lost});
    [[Time.zero]] is a normal delivery; a positive element delays that
    copy beyond [delay] (modelling reordering or a path-delay change);
    two or more elements duplicate the packet (extra copies counted in
    {!duplicated}). Negative delays are clamped to zero. *)

val set_tracer : t -> ?src:int -> Trace.t option -> unit
(** Install (or remove) an event tracer: every transmit emits
    [link.tx], every loss (corruption, drop filter or fault hook)
    [link.drop], and every arrival [link.deliver], all carrying the
    packet's flow id and wire size with [src] (default 0) identifying
    this link. With [None] tracing costs one pattern match and
    allocates nothing. *)

val delay : t -> Sim.Time.t
val delivered : t -> int
val lost : t -> int
(** Packets corrupted in flight or dropped by the fault hook so far. *)

val duplicated : t -> int
(** Extra copies created by the fault hook (a packet delivered twice
    counts one transmit, two {!delivered}, one {!duplicated}). *)

val in_flight : t -> int
(** Copies transmitted but not yet delivered. On a remote link this is
    the difference of two single-writer counters owned by different
    partitions — read it only at synchronization barriers. *)
