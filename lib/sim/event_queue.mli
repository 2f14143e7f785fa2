(** Pending-event set for the discrete-event engine.

    A growable structure-of-arrays 4-ary min-heap ordered by (time,
    birth, insertion sequence), so events scheduled for the same
    instant fire in FIFO order — a property the TCP model relies on
    (e.g. an ACK arriving before a timer set at the same instant it was
    armed for). The [birth] key — the clock value at which the event
    was scheduled — is nondecreasing for events added by a lone
    scheduler, where it changes nothing; it exists so a partition
    barrier can splice in an event born earlier on another scheduler
    and have it rank among same-due local events exactly where a single
    global heap would have put it. The heap orders entries by key, not
    by when they were inserted: {!reserve} takes a sequence number now
    and {!add_reserved} inserts the event later, at the rank it would
    have had.

    The hot path is allocation-free: timestamps are unboxed native ints
    held in flat arrays, and handles are packed integers rather than
    heap records. The heap is indexed: each handle's slot records its
    entry's heap position, so {!cancel} removes the entry at once, in
    O(log n), and the heap holds exactly the live events. *)

type t

type handle = private int
(** Token returned by {!add}, used to cancel the event. Handles are
    packed (slot, generation) integers: immediate values, no per-event
    allocation. A handle is only meaningful to the queue that issued
    it. *)

val null : handle
(** An inert handle: {!cancel} on it is a no-op and {!is_cancelled} is
    [true]. Useful to initialise a cell that will hold a real handle. *)

val create : ?initial_capacity:int -> unit -> t

val add : t -> ?birth:Time.t -> time:Time.t -> (unit -> unit) -> handle
(** [add q ~time f] schedules [f] to fire at [time]. [birth] (default
    [Time.zero]) breaks same-[time] ties before insertion order; pass
    the scheduling clock when merging events from several clocks.
    Callers that always use the same [birth] get pure FIFO ties. *)

val add_born : t -> birth:Time.t -> time:Time.t -> (unit -> unit) -> handle
(** {!add} with [birth] required — the allocation-free spelling (an
    omitted-or-supplied optional [Time.t] boxes a [Some] per call).
    The scheduler's per-event hot path uses this. *)

val cancel : t -> handle -> unit
(** [cancel q h] removes the event from the heap, so it never fires.
    Idempotent; cancelling an already-fired or already-cancelled event
    is a no-op — slot generations make stale handles inert. *)

val is_cancelled : t -> handle -> bool
(** [is_cancelled q h] is [true] when [h] no longer designates a
    pending event that will fire: it was cancelled or has already
    fired. *)

val reserve : t -> int
(** [reserve q] takes the insertion sequence number the next {!add}
    would have used, and schedules nothing. An event inserted later by
    {!add_reserved} with this number ranks among same-key events
    exactly where an event added now would have. Each reserved number
    is for one event. *)

val add_reserved :
  t -> birth:Time.t -> seq:int -> time:Time.t -> (unit -> unit) -> handle
(** [add_reserved q ~birth ~seq ~time f] schedules [f] under the key
    (time, birth, seq), [seq] coming from {!reserve}. Raises
    [Invalid_argument] if [seq] was never reserved on [q]. *)

val pop : t -> (Time.t * (unit -> unit)) option
(** [pop q] removes and returns the earliest event, or [None] if the
    queue is empty. *)

val next_time : t -> Time.t option
(** Time of the earliest event without removing it. *)

val next_time_ns : t -> int
(** Raw nanosecond timestamp of the earliest event, or [-1] when none
    remains. The allocation-free twin of {!next_time} — the scheduler's
    run loop lives on this plus {!pop_action_exn}, so dispatching an
    event allocates no words at all. O(1): it reads the root. *)

val pop_action_exn : t -> (unit -> unit)
(** Remove the earliest event and return its action without the
    option/tuple boxing of {!pop}. Raises [Invalid_argument] when the
    queue is empty — pair with {!next_time_ns}. *)

val live_count : t -> int
(** Number of scheduled, not-yet-cancelled events, which is the number
    of heap entries: a cancelled event leaves the heap at once. O(1). *)

val is_empty : t -> bool
(** [is_empty q] is [live_count q = 0]. O(1). *)
