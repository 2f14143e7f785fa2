(** Discrete-event simulation loop.

    A scheduler owns the simulated clock and the pending-event set. All
    model components share one scheduler and advance time only by firing
    events; there is no wall-clock coupling, so runs are deterministic
    given a fixed RNG seed. *)

type t

type handle = Event_queue.handle

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes a scheduler whose clock reads {!Time.zero}
    and whose RNG is seeded with [seed] (default 1). *)

val now : t -> Time.t
(** Current simulated time. *)

val rng : t -> Rng.t
(** The simulation-wide random stream. Components needing independent
    streams should {!Rng.split} it at setup time. *)

val derive_rng : t -> Rng.t
(** A fresh stream derived from the creation seed via {!Rng.derive_seed},
    numbered by creation order. Unlike {!Rng.split} on the shared
    {!rng}, this consumes nothing from the simulation-wide stream, so
    adding a component that derives its own stream does not perturb the
    random decisions of unrelated components. Deterministic for a fixed seed
    and construction order. *)

val restore_clock : t -> Time.t -> unit
(** Set the clock directly — the snapshot-restore and partition-barrier
    hook. Normal runs advance the clock exclusively by firing events;
    this is for a restored run resuming from its checkpoint time, or a
    partition whose peers have all reached a barrier. Raises
    [Invalid_argument] if an event (heap or wheel) earlier than the new
    time is still pending — jumping over it would fire it in the past. *)

val at : ?birth:Time.t -> t -> Time.t -> (unit -> unit) -> handle
(** [at t time f] schedules [f] for absolute [time]. Raises
    [Invalid_argument] if [time] is in the past. [birth] (default
    [now t]) is the same-[time] tiebreak recorded with the event; only
    the partition barrier passes it, to splice a cross-partition
    delivery in at the rank its legacy single-heap scheduling time
    would have given it. *)

val reserve : t -> int
(** [reserve t] takes the sequence number an event scheduled now would
    get, and schedules nothing. Pass it, with the clock read now as
    [birth], to {!at_reserved} later: the event then ranks among
    same-time events exactly where one scheduled now would have. A
    component that keeps its own queue of due events (a link's copies
    in flight) arms only its earliest this way, yet dispatches in the
    order of one event per entry. *)

val at_reserved :
  t -> birth:Time.t -> seq:int -> Time.t -> (unit -> unit) -> handle
(** [at_reserved t ~birth ~seq time f] schedules [f] at [time] under the
    key (time, birth, seq), [seq] coming from {!reserve}. Like {!at}, it
    raises [Invalid_argument] if [time] is in the past. *)

val after : t -> Time.t -> (unit -> unit) -> handle
(** [after t delay f] schedules [f] at [now t + delay]. A non-positive
    delay is clamped to "immediately" (still dispatched through the event
    loop, preserving run-to-completion semantics). *)

val every : t -> Time.t -> (unit -> unit) -> handle ref
(** [every t period f] fires [f] one period from now and then every
    [period]. Cancel via the returned ref, which always holds the handle
    of the next pending occurrence. One closure is allocated per timer,
    not per tick. *)

val cancel : t -> handle -> unit

val run : ?until:Time.t -> t -> unit
(** [run ?until t] fires events in time order. With [until], stops once
    the next event lies strictly beyond it and sets the clock to [until];
    without it, runs until no live event remains. *)

val step : t -> bool
(** [step t] fires exactly the next event. Returns [false] when no live
    event remains. {!run} is a loop over it; only tests call it
    directly: the [sim.scheduler] test "manual stepping" (with
    {!pending}). *)

val next_ns : t -> int
(** Absolute time (ns) of the next pending event, merging the heap and
    the attached wheel exactly as {!step} would dispatch them; [-1] when
    nothing is pending. This is the per-partition bound the conservative
    {!Partition} synchronizer computes its safe horizon from. *)

val pending : t -> int
(** Events still scheduled (O(1)): heap entries plus each attached
    wheel's {!Timer_wheel.pending}. A link's copies queued behind the
    one it has armed are not heap entries, so they are not counted.
    Only tests read it: [sim.scheduler] "manual stepping". *)

val attach_wheel : t -> Timer_wheel.t -> unit
(** Put a {!Timer_wheel} under the run loop: {!step}/{!run} interleave
    its (tick-quantized) firings with heap events in time order, heap
    first on ties — so a scheduler with an idle wheel behaves exactly
    like one without. Wheels serve dense timers that are never
    cancelled (the many-flows engine's round cohorts and arrivals); the
    heap remains the home for sparse, cancellable or non-quantized
    events. Several wheels may be attached
    (each sharded [many_flows] engine owns one); attention ties among
    wheels resolve in attach order, which is model-construction order
    and therefore deterministic. *)

val set_tracer : t -> Trace.t option -> unit
(** Install (or remove) an event tracer. With a tracer installed, each
    dispatched heap event emits a [sched.dispatch] record, whose [arg1]
    is the number of heap entries left after the pop (a link's copies
    queued behind its armed one are not heap entries). The category is
    off in {!Trace.create}'s default mask, so the dispatch firehose costs
    one masked emit unless explicitly enabled. With [None] (the
    default) the run loop pays one pattern match and allocates
    nothing. *)
