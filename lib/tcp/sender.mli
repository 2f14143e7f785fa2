(** TCP sender endpoint.

    One direction of data transfer: this endpoint emits SYN + data
    segments through its host's interface queue and consumes the ACK
    stream. Congestion control is split into a {!Slow_start} policy
    (the paper's axis) and a {!Cong_avoid} algorithm, with fast
    retransmit / NewReno or SACK-based recovery and RFC 6298 timeouts.
    Send-stalls reported by the host IFQ feed the configured
    {!Local_congestion} policy — the pathway the paper studies. *)

type phase = Syn_sent | Slow_start_p | Cong_avoid_p | Fast_recovery
(** After a retransmission timeout the sender re-enters [Slow_start_p]
    (with the slow-start policy reset), mirroring RFC 5681. *)

val phase_to_string : phase -> string

type t

val create :
  host:Netsim.Host.t ->
  dst:int ->
  flow:int ->
  ids:Netsim.Packet.Id_source.source ->
  ?config:Config.t ->
  ?slow_start:Slow_start.t ->
  ?cong_avoid:Cong_avoid.t ->
  unit ->
  t
(** Builds the endpoint and registers it for [flow] on [host]. The
    default policies are [Slow_start.standard] and [Cong_avoid.reno]. *)

val start : t -> ?bytes:int -> unit -> unit
(** Open the connection (SYN) and stream [bytes] of application data
    (default: unlimited). Must be called once. *)

val supply : t -> int -> unit
(** Application write: make [n] more bytes available on a bounded
    connection (raises [Invalid_argument] on an unlimited one, which
    already has everything to send). Used by bursty sources such as
    [Workload.Chunked]. *)

val on_complete : t -> (unit -> unit) -> unit
(** Callback when every requested byte has been cumulatively ACKed.
    Never fires for unlimited transfers. *)

(** {2 Introspection} *)

val phase : t -> phase

val cwnd : t -> float
(** Congestion window, bytes. *)

val ssthresh : t -> float

val flight : t -> int
(** Un-SACKed outstanding bytes. *)

val bytes_acked : t -> int

val bytes_sent : t -> int
(** Data bytes handed to the IFQ (retransmissions included). *)

val srtt : t -> Sim.Time.t option
val min_rtt : t -> Sim.Time.t option
val rto : t -> Sim.Time.t

val rto_backoff : t -> int
(** Exponential-backoff multiplier currently applied to {!rto} (1 when
    not backed off; doubles per timeout, resets on the first ACK of new
    data — Karn's algorithm). *)

val send_stalls : t -> int
val congestion_signals : t -> int
val timeouts : t -> int
val retransmits : t -> int

val kis : (string * (t -> float)) list
(** The web100 Kernel Instrument Set this sender maintains, as (name,
    read) pairs in a stable order — the per-connection column order of
    every metrics export. Names follow the web100 / draft-mathis-tcp-mib
    spelling. Twelve counters: PktsOut, DataBytesOut, PktsRetrans,
    BytesRetrans, CongestionSignals, SendStall, Timeouts, DupAcksIn,
    FastRetran, AcksIn, SlowStart and CongAvoid (ACKs taken in each
    phase). Seven gauges: CurCwnd, CurSsthresh and MaxRwinRcvd in
    bytes, SmoothedRTT, CurRTO and MinRTT in ms, and CurIFQ in packets;
    they refresh at the end of every send attempt and ACK, and read 0
    until first set. *)

val set_tracer : t -> Trace.t option -> unit
(** Install (or remove) an event tracer. The sender emits
    [tcp.send_stall] (cumulative stalls, IFQ occupancy) on each refused
    enqueue, [tcp.cwnd] (cwnd, ssthresh — a counter record) whenever
    the window changes, [tcp.retransmit] (offset, bytes) per
    retransmitted range, [tcp.fast_retransmit] (snd_una, recover point)
    on fast-recovery entry, and [tcp.rto] (backoff multiplier, flight
    bytes) per timeout. Records use the flow id as [src]. With [None]
    tracing costs one pattern match and allocates nothing. *)
