(** Disk-paced bulk source: the application hands the socket a chunk of
    data every interval (GridFTP reading from storage, a tape stager, a
    periodic dump). Between chunks the connection drains and goes idle,
    so with [slow_start_restart] each chunk replays slow-start — the
    workload that makes a single transfer accumulate several send-stalls
    (Figure 1's staircase). *)

type t

val start :
  src:Netsim.Host.t ->
  dst:Netsim.Host.t ->
  flow:int ->
  ids:Netsim.Packet.Id_source.source ->
  ?rx_ids:Netsim.Packet.Id_source.source ->
  chunk_bytes:int ->
  interval:Sim.Time.t ->
  ?chunks:int ->
  ?config:Tcp.Config.t ->
  ?slow_start:Tcp.Slow_start.t ->
  ?cong_avoid:Tcp.Cong_avoid.t ->
  unit ->
  t
(** The first chunk is written immediately, subsequent ones every
    [interval]. [chunks] bounds the count (default: unbounded).
    [rx_ids] (default [ids]): id source for the receiver's ACKs — pass
    the destination partition's source on a partitioned run. *)

val sender : t -> Tcp.Sender.t
val receiver : t -> Tcp.Receiver.t

val chunks_issued : t -> int
(** Chunks written so far. The [tcp.integration] test "chunked
    staircase" checks that [chunks] bounds it. *)
