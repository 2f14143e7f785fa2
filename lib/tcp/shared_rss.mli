(** Host-wide Restricted Slow-Start.

    E11 shows the per-connection design's blind spot: N independent
    controllers regulating the {e same} interface queue fight over the
    set point and the stalls return. Here one controller per host owns
    the queue: it steps on a fixed clock (not per ACK) and publishes a
    total window budget that its member connections split evenly. Each
    member's slow-start policy simply steers its own window toward its
    share.

    The controller window-validates globally: if the members together
    leave the commanded budget mostly unused (the host is application-
    or receiver-limited), stepping is skipped so the integral cannot
    wind up against an empty queue. *)

type t

val create :
  Sim.Scheduler.t ->
  ifq:Netsim.Ifq.t ->
  ?config:Slow_start.restricted_config ->
  unit ->
  t
(** One per sending host. Starts its sampling clock immediately
    ([config.sample_min_interval] period). *)

val policy : t -> Slow_start.t
(** A fresh slow-start policy bound to this controller, to pass to one
    {!Sender.create}. Each call registers one more member; the budget
    is split across all policies ever created (members are assumed
    long-lived, like the parallel streams they model). *)

val members : t -> int
val commanded_window_segments : t -> float
(** Current total budget. It and {!members} are read only by the
    [tcp.shared-rss] test "single member ~ solo RSS", which checks the
    registration count and the budget the controller settles on. *)
