(** Run-wide event tracer and metrics registry.

    The tracer is a bounded ring of int-packed records — a web100-style
    instrumentation plane extended to every soft component the paper's
    controller touches (scheduler, links, interface queues, NICs, TCP
    senders). It is built for the simulation hot path:

    - the ring is preallocated at {!create}; {!emit} writes four
      unboxed ints and allocates nothing;
    - every record carries a category bit; {!emit} drops records whose
      category is masked out, so a component can emit unconditionally
      and pay one array load + logical AND when its category is off;
    - components hold a [Trace.t option]; with [None] the hot path pays
      a single pattern match and zero allocation.

    Determinism: the tracer only observes — it draws no randomness and
    schedules no events — so a traced run performs exactly the same
    model transitions as an untraced one, and two traced runs of the
    same scenario produce byte-identical rings regardless of worker
    count (each run owns a private ring; merging is the caller's,
    deterministic, job).

    This module is deliberately dependency-free (timestamps are raw
    nanosecond ints) so that [sim], [netsim], [tcp] and [report] can
    all link against it without cycles. *)

(* --- event vocabulary -------------------------------------------------- *)

module Code : sig
  (** Category bits, one per subsystem. *)

  val cat_sched : int
  val cat_link : int
  val cat_ifq : int
  val cat_nic : int
  val cat_tcp : int

  val all_categories : int
  (** Every category bit set. *)

  val default_mask : int
  (** Everything except {!cat_sched} — per-dispatch scheduler records
      are high-volume and usually noise; enable them explicitly. *)

  val category_name : int -> string
  (** Name of a category bit ("sched", "link", ...); "?" if unknown. *)

  val category_of_name : string -> int option

  (** Event codes. Each code belongs to exactly one category. *)

  val sched_dispatch : int
  (** arg1 = heap entries after the pop. A link arms only its earliest
      undelayed copy in flight, so the copies queued behind it are not
      counted. *)

  val link_tx : int  (** arg1 = flow, arg2 = bytes *)

  val link_drop : int  (** arg1 = flow, arg2 = bytes *)

  val link_deliver : int  (** arg1 = flow, arg2 = bytes *)

  val ifq_enqueue : int  (** arg1 = occupancy after, arg2 = flow *)

  val ifq_stall : int  (** arg1 = total stalls, arg2 = flow *)

  val nic_tx : int  (** arg1 = flow, arg2 = bytes *)

  val tcp_send_stall : int  (** arg1 = total stalls, arg2 = IFQ occupancy *)

  val tcp_cwnd : int  (** arg1 = cwnd bytes, arg2 = ssthresh bytes *)

  val tcp_retransmit : int  (** arg1 = offset, arg2 = bytes *)

  val tcp_fast_retransmit : int  (** arg1 = snd_una, arg2 = recover point *)

  val tcp_rto : int  (** arg1 = backoff multiplier, arg2 = flight bytes *)

  val count : int
  (** Codes are [0 .. count-1]. *)

  val name : int -> string
  (** Stable export name ("link.tx", "tcp.cwnd", ...). Raises
      [Invalid_argument] on an out-of-range code. *)

  val category : int -> int
  (** The category bit a code belongs to. *)

  val is_counter : int -> bool
  (** Counter-valued codes ([tcp_cwnd]) export as Chrome ["C"] (counter)
      events; the rest as instants. *)
end

(* --- the ring ----------------------------------------------------------- *)

type t

val create : ?capacity:int -> ?mask:int -> unit -> t
(** [create ~capacity ~mask ()] preallocates a ring of [capacity]
    records (default 65536; must be positive) accepting the categories
    in [mask] (default {!Code.default_mask}). *)

val emit : t -> time_ns:int -> code:int -> src:int -> arg1:int -> arg2:int -> unit
(** Append one record, overwriting the oldest once the ring is full
    (the overwritten count is reported by {!dropped}). Records whose
    category is masked out are discarded for free. Never allocates.
    [src] identifies the emitting instance (flow id, host id, link
    index) and must fit 54 bits. *)

val mask : t -> int
val set_mask : t -> int -> unit
val capacity : t -> int

val length : t -> int
(** Records currently retained (≤ capacity). *)

val total : t -> int
(** Records accepted since creation (masked-out emits excluded). *)

val dropped : t -> int
(** Records overwritten by ring wrap-around: [total - length]. *)

val clear : t -> unit
(** Empty the ring and reset {!total}/{!dropped}. *)

val iter :
  t -> (time_ns:int -> code:int -> src:int -> arg1:int -> arg2:int -> unit) -> unit
(** Visit retained records oldest-first (emission order, which is also
    time order for a single-scheduler run). *)

(* --- metrics registry --------------------------------------------------- *)

module Registry : sig
  (** One namespace over every gauge and counter a run exposes:
      web100 per-connection variables ([conn/<label>/<Var>]), link
      counters ([link/<dir>/<what>]) and host soft-component gauges
      ([host/<id>/<what>]) all register here, giving samplers and
      exporters a single, ordered, duplicate-free catalog. *)

  type probe = unit -> float
  (** Probes must be pure reads: called at sampling time, they must not
      mutate model state or draw randomness. *)

  type registry

  val create : unit -> registry

  val register : registry -> name:string -> probe -> unit
  (** Raises [Invalid_argument] on a duplicate name — two metrics
      sharing a name would silently misalign every exported column
      after them (the bug class this registry exists to prevent). *)

  val names : registry -> string list
  (** In registration order — the export column order. *)

  val size : registry -> int

  val read : registry -> string -> float option
  (** Sample one probe by name. *)

  val sample : registry -> float array
  (** Sample every probe, in registration order. *)
end
