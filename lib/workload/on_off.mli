(** On-off (bursty) UDP source: exponentially distributed burst and
    silence durations, CBR emission while on. Models the interactive /
    bursty cross traffic sharing the host NIC in the paper's §2
    motivation. *)

type t

val start :
  host:Netsim.Host.t ->
  dst:int ->
  flow:int ->
  ids:Netsim.Packet.Id_source.source ->
  rng:Sim.Rng.t ->
  peak_rate:Sim.Units.rate ->
  mean_on:Sim.Time.t ->
  mean_off:Sim.Time.t ->
  ?packet_bytes:int ->
  unit ->
  t

val packets_sent : t -> int
