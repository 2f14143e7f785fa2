(** Long-lived bulk transfers — the workload of the paper's experiment
    (a GridFTP-style memory-to-memory stream). Thin sugar over
    {!Tcp.Connection} that tracks completion time. *)

type t

val start :
  src:Netsim.Host.t ->
  dst:Netsim.Host.t ->
  flow:int ->
  ids:Netsim.Packet.Id_source.source ->
  ?rx_ids:Netsim.Packet.Id_source.source ->
  ?config:Tcp.Config.t ->
  ?slow_start:Tcp.Slow_start.t ->
  ?cong_avoid:Tcp.Cong_avoid.t ->
  ?bytes:int ->
  unit ->
  t
(** [rx_ids] (default [ids]): id source for the receiver's ACKs — pass
    the destination partition's source on a partitioned run. *)

val sender : t -> Tcp.Sender.t
val receiver : t -> Tcp.Receiver.t

val completion_time : t -> Sim.Time.t option
(** When the receiver saw the last requested byte ([bytes] given). *)
