(** Simulator packets.

    A packet is immutable once created; queueing metadata lives in the
    queues themselves. [flow] identifies the end-to-end conversation and
    is what hosts demultiplex on. *)

type t = {
  id : int;               (** unique per simulation *)
  flow : int;             (** conversation id, used for delivery demux *)
  src : int;              (** source node id *)
  dst : int;              (** destination node id *)
  created : Sim.Time.t;   (** when the sender emitted it *)
  payload : Proto.Payload.t;
  mutable ecn_ce : bool;
      (** Congestion-Experienced mark (RFC 3168), set by AQM queues in
          marking mode instead of dropping *)
}

val make :
  id:int ->
  flow:int ->
  src:int ->
  dst:int ->
  created:Sim.Time.t ->
  Proto.Payload.t ->
  t

val placeholder : t
(** A packet that is never sent. It fills the empty slots of packet
    buffers (a NIC's in-flight slot, a link's FIFO), so a buffer keeps
    no delivered packet alive. *)

val size : t -> int
(** Wire size in bytes, derived from the payload. *)

(** Monotonic id source; one per simulation keeps runs deterministic. *)
module Id_source : sig
  type source

  val create : unit -> source
  val next : source -> int
end
