(** Output-queued store-and-forward router.

    Each port owns a queue discipline and a NIC draining it onto a link.
    Forwarding is by static per-destination routes; packets for unknown
    destinations are counted and discarded. *)

type t
type port

val create : Sim.Scheduler.t -> t

val add_port :
  t -> queue:Queue_disc.t -> rate:Sim.Units.rate -> link:Link.t -> port

val route : t -> dst:int -> port -> unit
(** Send packets destined to node [dst] out of [port]. *)

val deliver : t -> Packet.t -> unit
(** Entry point for inbound links: enqueue on the routed port (drop if
    the queue refuses) and kick its NIC. *)

val forwarded : t -> int
(** Packets accepted onto some port queue. Only tests read it and
    {!no_route}: the [netsim.components] test "router routing and
    drops" balances them against {!dropped} and the link's deliveries. *)

val dropped : t -> int
(** Packets refused by a port queue (congestion loss). *)

val no_route : t -> int
(** Packets discarded for lack of a route. *)
