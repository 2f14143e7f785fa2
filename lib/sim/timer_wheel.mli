(** Hierarchical timing wheel for the per-flow timer regime.

    Four levels of 256 slots over a power-of-two tick (default 65.536
    µs): arm, cancel and re-arm are O(1) and allocate zero minor words —
    the structure is flat int arrays with intrusive slot lists and
    packed integer handles, like {!Event_queue}. The heap remains the
    right home for sparse, far-future or non-quantized events; the
    wheel serves dense per-flow RTO/pacing/round timers, where a
    million concurrent timers churn without any per-timer heap object
    or closure.

    Due times are quantized: a timer requested for [due_ns] fires at
    [due_ns] rounded {e up} to the next tick boundary. Timers sharing a
    quantized due tick fire in arm order (FIFO), matching the event
    heap's (time, sequence) order — the model-based test suite checks
    this equivalence under random arm/cancel/advance interleavings.

    Timers carry two small integer payloads ([kind], [flow]) and fire
    through the single [on_fire] callback given at creation: dispatch
    allocates nothing and holds no per-timer closure. *)

type t

type handle = private int
(** Packed (generation, node) token. Stale handles — fired or cancelled
    — are inert. Only meaningful to the wheel that issued it. *)

val create :
  ?tick_ns:int ->
  ?initial_capacity:int ->
  on_fire:(kind:int -> flow:int -> unit) ->
  unit ->
  t
(** [tick_ns] must be a positive power of two (default 65536 ≈ 65.5 µs,
    giving a 2^32-tick ≈ 78-hour horizon). [on_fire] receives every
    expiring timer's payload. *)

val arm : t -> due_ns:int -> kind:int -> flow:int -> handle
(** Schedule a firing at [due_ns] rounded up to the tick. A due time at
    or before the wheel's current position fires on the next
    {!advance}. A due time beyond the wheel horizon (≈78 h ahead, e.g. a
    backoff-inflated RTO) is parked in an overflow list and re-homed
    onto the wheel by the top-level cascade once it comes within range —
    it still fires at its (quantized) due time, though FIFO order
    against in-range timers sharing the same due tick is not guaranteed
    across the overflow boundary. Raises [Invalid_argument] only on a
    negative due time. *)

val cancel : t -> handle -> unit
(** O(1), idempotent, allocation-free. *)

val is_pending : t -> handle -> bool
(** Only tests call it, to watch handles go stale: the
    [sim.timer-wheel] tests "cancel is O(1), idempotent,
    generation-safe", "overflow timers cancel cleanly" and "iter_pending
    visits all; drain stales handles". *)

val next_due_ns : t -> int
(** Next {e attention} time, or [-1] when no timer is pending: either
    the exact (quantized) due time of the earliest timer, or an earlier
    cascade boundary where the wheel must re-home a slot. Advancing to
    attention points repeatedly fires every timer at exactly its due
    tick; an advance to a pure cascade point fires nothing. Cached;
    recomputed lazily after fires and min-cancellations. *)

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
    exactly; this is the snapshot serialization order. Do not arm or
    cancel from [f]. *)

val drain : t -> unit
(** Remove every armed timer without firing it. All outstanding handles
    become stale. Used by snapshot restore before re-arming. *)

val tick_ns : t -> int
val horizon_ns : t -> int
(** Last representable due time from the current position. Only tests
    call it, to arm past the horizon: the [sim.timer-wheel] overflow
    tests. *)

val now_tick : t -> int
(** Current position in ticks (testing hook). *)
