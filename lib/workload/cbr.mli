(** Constant-bit-rate UDP source: background cross traffic that shares
    queues with the TCP flows under study but does not react to loss. *)

type t

val start :
  host:Netsim.Host.t ->
  dst:int ->
  flow:int ->
  ids:Netsim.Packet.Id_source.source ->
  rate:Sim.Units.rate ->
  ?packet_bytes:int ->
  ?stop_at:Sim.Time.t ->
  unit ->
  t
(** Emit [packet_bytes]-byte datagrams (default 1000) at [rate] until
    [stop_at] (default: forever). Emission is paced deterministically. *)

val packets_sent : t -> int
val packets_stalled : t -> int
(** Datagrams refused by the local IFQ (counted, not retried). *)
