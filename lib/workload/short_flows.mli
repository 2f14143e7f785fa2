(** Poisson arrivals of short TCP transfers with Pareto-distributed
    sizes — the classic "web mice" workload. Each arrival opens a fresh
    connection from [src] to [dst] on its own flow id and records its
    completion time. *)

type t

type completed = {
  flow : int;
  size : int;              (** bytes requested *)
  started : Sim.Time.t;
  finished : Sim.Time.t;
}

val start :
  src:Netsim.Host.t ->
  dst:Netsim.Host.t ->
  ids:Netsim.Packet.Id_source.source ->
  rng:Sim.Rng.t ->
  arrival_rate:float ->
  ?mean_size:int ->
  ?pareto_shape:float ->
  ?first_flow:int ->
  ?config:Tcp.Config.t ->
  ?policy:(unit -> Tcp.Policy.t) ->
  ?stop_at:Sim.Time.t ->
  unit ->
  t
(** [arrival_rate] is flows per second; sizes are Pareto with the given
    [mean_size] (default 30 KiB) and [pareto_shape] (default 1.2, heavy
    tail). Flow ids count up from [first_flow] (default 10_000). Each
    connection gets a fresh [policy ()] (default ["standard"]): both its
    slow-start and its avoidance rule. *)

val stop : t -> unit
val launched : t -> int
val completions : t -> completed list
(** Finished transfers, oldest first. *)

val mean_completion_time : t -> float
(** Seconds; 0. if nothing completed. *)
