(** Host interface queue — the "soft component" at the heart of the
    paper.

    A bounded drop-tail queue between the transport layer and the NIC
    (Linux's qdisc, bounded by [txqueuelen]). A refused enqueue is a
    {e send-stall}: the local event Linux TCP misreads as network
    congestion. The IFQ exposes its occupancy as the process variable
    the Restricted Slow-Start PID controller reads, plus time-weighted
    occupancy statistics for the evaluation. *)

type t

val create :
  Sim.Scheduler.t ->
  capacity:int ->
  ?red_ecn:Queue_disc.red_params * Sim.Units.rate ->
  unit ->
  t
(** [capacity] in packets; must be positive. With [red_ecn (params,
    link_rate)] the queue runs RED in ECN-marking mode instead of plain
    drop-tail — the qdisc configuration experiment E12 compares against
    the paper's controller. *)

val queue : t -> Queue_disc.t
(** The underlying discipline (for wiring into a {!Nic}). *)

val try_enqueue : t -> Packet.t -> bool
(** [try_enqueue t pkt] is [true] on success. On failure the stall
    counter increments. *)

val occupancy : t -> int
(** Packets currently queued. *)

val capacity : t -> int

val stalls : t -> int
(** Total refused enqueues. *)

val on_space : t -> (unit -> unit) -> unit
(** Register a hook run when the queue transitions from full to
    not-full — the moment a stalled sender can retry. *)

val note_dequeue : t -> unit
(** Must be wired as the NIC's dequeue hook; updates occupancy tracking
    and fires {!on_space} hooks on a full→not-full transition. *)

val set_tracer : t -> ?src:int -> Trace.t option -> unit
(** Install (or remove) an event tracer: accepted enqueues emit
    [ifq.enqueue] (occupancy after, flow) and refused ones [ifq.stall]
    (total stalls, flow), with [src] (default 0) identifying this
    queue. With [None] tracing costs one pattern match and allocates
    nothing. *)

val mean_occupancy : t -> float
(** Time-weighted average occupancy (packets) since creation. *)

val peak_occupancy : t -> float
