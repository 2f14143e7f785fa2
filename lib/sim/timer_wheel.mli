(** Hierarchical timing wheel for the many-flows engine's timers.

    Four levels of 256 slots over a power-of-two tick (default 65.536
    µs): arming and firing are O(1) and allocate zero minor words — the
    structure is flat int arrays with intrusive singly-linked slot
    lists, like {!Event_queue}. The heap remains the right home for
    sparse, cancellable or non-quantized events; the wheel serves
    [Workload.Many_flows]' round cohorts and its flow arrivals, armed
    and fired without any per-timer heap object or closure. A timer
    cannot be cancelled: it fires, or {!drain} removes it with every
    other.

    Due times are quantized: a timer requested for [due_ns] fires at
    [due_ns] rounded {e up} to the next tick boundary, never before its
    requested time. Timers sharing a quantized due tick fire in arm
    order (FIFO), matching the event heap's (time, sequence) order —
    the model-based test suite checks this equivalence under random
    arm/advance interleavings.

    Timers carry two small integer payloads ([kind], [flow]) and fire
    through the single [on_fire] callback given at creation: dispatch
    allocates nothing and holds no per-timer closure. *)

type t

val create :
  ?tick_ns:int ->
  ?initial_capacity:int ->
  on_fire:(kind:int -> flow:int -> unit) ->
  unit ->
  t
(** [tick_ns] must be a positive power of two (default 65536 ≈ 65.5 µs,
    giving a 2^32-tick ≈ 78-hour horizon). [on_fire] receives every
    expiring timer's payload. *)

val arm : t -> due_ns:int -> kind:int -> flow:int -> unit
(** Schedule a firing at [due_ns] rounded up to the tick. A due time at
    or before the wheel's current position fires on the next
    {!advance}. A due time beyond the wheel horizon (≈78 h ahead, e.g. a
    long arrival gap) is parked in an overflow list and re-homed onto
    the wheel by the top-level cascade once it comes within range — it
    still fires at its (quantized) due time, though FIFO order against
    in-range timers sharing the same due tick is not guaranteed across
    the overflow boundary. Raises [Invalid_argument] on a negative due
    time or one past {!max_due_ns}. *)

val max_due_ns : t -> int
(** The latest due time {!arm} accepts: [max_int] less [tick_ns − 1],
    the last one whose round-up to the tick does not overflow. *)

val next_due_ns : t -> int
(** Next {e attention} time, or [-1] when no timer is pending: either
    the exact (quantized) due time of the earliest timer, or an earlier
    cascade boundary where the wheel must re-home a slot. Advancing to
    attention points repeatedly fires every timer at exactly its due
    tick; an advance to a pure cascade point fires nothing. Cached;
    recomputed lazily after an {!advance} or a {!drain}. *)

val advance : t -> now_ns:int -> unit
(** Move the wheel to [now_ns], firing (in due order, FIFO within a
    tick) every timer whose quantized due time is [<= now_ns]. Time
    never moves backwards; an [advance] into the past is a no-op. *)

val pending : t -> int
(** Armed, not-yet-fired timers. O(1). *)

val iter_pending :
  t -> f:(due_ns:int -> kind:int -> flow:int -> unit) -> unit
(** Visit every armed timer without disturbing it: level-major slot
    order, FIFO (arm order) within a slot. [due_ns] is the quantized due
    time ([due_tick × tick_ns]). Because a due tick maps to exactly one
    slot for a fixed wheel position, re-{!arm}ing the visited timers in
    visit order into a wheel advanced to the same position rebuilds
    every slot list — and therefore every future firing order —
    exactly; this is the snapshot serialization order. Do not arm from
    [f]. *)

val drain : t -> unit
(** Remove every armed timer without firing it. Used by snapshot
    restore before re-arming. *)

val tick_ns : t -> int
val horizon_ns : t -> int
(** Last representable due time from the current position. Only tests
    call it, to arm past the horizon: the [sim.timer-wheel] overflow
    tests. *)

val now_tick : t -> int
(** Current position in ticks. [Workload.Many_flows.save] writes it
    to the image, and restore advances a fresh wheel there before it
    re-arms. *)
