(** TCP receiver endpoint: cumulative + selective acknowledgment
    generation with RFC 1122 delayed ACKs.

    In-order data advances the cumulative point through the reorder
    buffer; out-of-order arrivals trigger immediate duplicate ACKs
    carrying SACK blocks. ACKs echo the timestamp of the segment that
    triggered them, giving the sender Karn-safe RTT samples. *)

type t

val create :
  host:Netsim.Host.t ->
  flow:int ->
  ids:Netsim.Packet.Id_source.source ->
  ?config:Config.t ->
  unit ->
  t
(** Registers for [flow] on [host]. The peer's address is learned from
    the SYN (or first data segment). *)

val expect : t -> bytes:int -> (unit -> unit) -> unit
(** Fire the callback once [bytes] of data have arrived in order. *)

val bytes_received : t -> int
(** In-order (delivered) bytes so far. *)

val backlog : t -> int
(** Bytes delivered in order but not yet consumed by the application
    (always 0 without [app_read_rate]). The [tcp.integration] test
    "slow application limits rate" checks it stays within the buffer. *)

val ce_marks_seen : t -> int
(** Data segments that arrived with the ECN Congestion-Experienced
    mark. *)

val goodput_mbps : t -> at:Sim.Time.t -> float
(** In-order payload bits delivered per second from time zero to [at]. *)

(** {2 Test observers}

    Counters that only tests read: the [tcp.recovery] and
    [tcp.rto-backoff] suites observe duplicates and reordering with
    them, and [tcp.integration]'s "delayed ACKs reduce ACK count" counts
    ACKs. *)

val duplicate_segments : t -> int
(** Segments fully below the cumulative point (spurious retransmits). *)

val out_of_order_segments : t -> int
val acks_sent : t -> int
