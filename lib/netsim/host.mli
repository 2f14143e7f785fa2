(** End host: transport attach point + IFQ + NIC.

    Outbound: transports call {!send}, which places the packet in the
    {!Ifq} and kicks the NIC — or reports a send-stall. Inbound: the
    peer link delivers into {!deliver}, which demultiplexes on the
    packet's flow id. *)

type t

val create :
  Sim.Scheduler.t ->
  id:int ->
  nic_rate:Sim.Units.rate ->
  ifq_capacity:int ->
  ?ifq_red_ecn:Queue_disc.red_params ->
  unit ->
  t
(** With [ifq_red_ecn] the interface queue runs RED+ECN (marking) at the
    NIC's line rate instead of drop-tail. *)

val id : t -> int
val scheduler : t -> Sim.Scheduler.t
val ifq : t -> Ifq.t
val nic : t -> Nic.t

val attach_uplink : t -> Link.t -> unit
(** Connect the NIC's outgoing link toward the next hop. *)

val send : t -> Packet.t -> [ `Sent | `Stalled ]
(** Hand a packet to the interface queue. [`Stalled] means the IFQ was
    full; the packet was {e not} queued and the caller keeps ownership. *)

val register_flow : t -> flow:int -> (Packet.t -> unit) -> unit
(** Route inbound packets of [flow] to the handler. Replaces any
    previous registration for that flow. Packets of an unregistered
    flow are dropped silently. *)

val unregister_flow : t -> flow:int -> unit

val deliver : t -> Packet.t -> unit
(** Entry point for the inbound link. *)

val rx_packets : t -> int
