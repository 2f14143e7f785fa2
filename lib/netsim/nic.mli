(** Transmit side of a network interface: a single-server queue drain.

    The NIC pulls packets from its queue discipline and serializes them
    onto the attached link at the configured line rate. It is purely
    event-driven: {!kick} after every enqueue, and it re-arms itself
    after each transmission completes. *)

type t

val create :
  Sim.Scheduler.t -> rate:Sim.Units.rate -> queue:Queue_disc.t -> t
(** [rate] must be strictly positive; raises [Invalid_argument]
    otherwise. *)

val attach : t -> Link.t -> unit
(** Connect the outgoing link. Must precede the first {!kick}. *)

val kick : t -> unit
(** Start transmitting if idle and the queue is non-empty. *)

val tx_packets : t -> int
val tx_bytes : t -> int

val set_tracer : t -> ?src:int -> Trace.t option -> unit
(** Install (or remove) an event tracer: each completed serialization
    emits [nic.tx] (flow, wire bytes) with [src] (default 0)
    identifying this NIC. With [None] tracing costs one pattern match
    and allocates nothing. *)

val set_dequeue_hook : t -> (Packet.t -> unit) -> unit
(** Invoked each time a packet leaves the queue and starts serializing —
    the host's IFQ uses this to observe occupancy drops. *)
