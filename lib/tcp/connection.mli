(** Convenience: wire a sender on one host to a receiver on another and
    start the transfer. *)

type t = {
  sender : Sender.t;
  receiver : Receiver.t;
  flow : int;
}

val establish :
  src:Netsim.Host.t ->
  dst:Netsim.Host.t ->
  flow:int ->
  ids:Netsim.Packet.Id_source.source ->
  ?rx_ids:Netsim.Packet.Id_source.source ->
  ?config:Config.t ->
  ?slow_start:Slow_start.t ->
  ?cong_avoid:Cong_avoid.t ->
  ?bytes:int ->
  unit ->
  t
(** Creates both endpoints, registers them for [flow], and starts the
    sender immediately ([bytes] omitted = unlimited transfer). [rx_ids]
    (default [ids]) labels the receiver's ACKs — pass the destination
    partition's id source when [src] and [dst] live on different
    partitions, so the two sides never race on one counter. *)

val goodput_mbps : t -> at:Sim.Time.t -> float
(** Receiver goodput from simulation start to [at]. *)

val completed : t -> bytes:int -> bool
(** Has the receiver seen [bytes] of in-order data? *)
