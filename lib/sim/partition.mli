(** Conservative-lookahead parallel DES across OCaml domains.

    A partitioned simulation splits the model into disjoint islands,
    each owning a private {!Scheduler}, and connects them with typed
    channels whose lookahead is the propagation delay of the boundary
    link they replace. The synchronizer advances all partitions in
    epochs bounded by the conservative horizon [H = nmin + L] (earliest
    pending event plus minimum lookahead): every event strictly below
    [H] is safe to fire because any cross-partition message emitted
    during the epoch is due at or beyond [H].

    Determinism contract: the trajectory — and therefore every artifact
    — is a pure function of the model alone, independent of the
    partition structure. Each {!Channel.send} records the source
    clock, and the barrier drain inserts the delivery with that clock
    as its birth key on the destination heap ({!Event_queue}'s (time,
    birth, sequence) order), so a cross-boundary event ranks among
    same-due local events exactly where a single global heap would
    have placed it. Channels are drained in creation order, FIFO
    within a channel; the worker count passed to {!run} only chooses
    which domain executes a partition and can never change the
    result. *)

type t

val create : parts:int -> seed_of:(int -> int) -> t
(** [create ~parts ~seed_of] makes [parts] partitions; partition [i]'s
    scheduler is seeded with [seed_of i]. Raises [Invalid_argument] if
    [parts < 1]. *)

val scheduler : t -> int -> Scheduler.t
(** The scheduler owned by a partition — build that partition's model
    components against it. *)

val min_lookahead_ns : t -> int
(** Minimum lookahead over all channels (ns); [max_int] when no channel
    has been created. This bounds how far each epoch can advance. Only
    tests read it: the [sim.partition] tests "create validation" and
    "channel validation" check it tracks the channels. *)

module Channel : sig
  type 'a t

  val send : 'a t -> due:Time.t -> 'a -> unit
  (** Hand a value across the boundary, to be delivered at absolute
      time [due]. Must be called from the source partition (during an
      epoch); the value is buffered and scheduled on the destination at
      the next barrier. Conservative horizons guarantee [due] has not
      passed on the destination. *)
end

val channel :
  t ->
  src:int ->
  dst:int ->
  lookahead:Time.t ->
  handler:(Time.t -> 'a -> unit) ->
  'a Channel.t
(** [channel t ~src ~dst ~lookahead ~handler] creates a typed channel
    from partition [src] to [dst]. [handler due v] runs on the
    destination partition at time [due] for each value sent. The
    contract that makes the horizon safe: every [send] must carry
    [due >= (send time) + lookahead]. Raises [Invalid_argument] on a
    non-positive lookahead (the horizon could never advance), equal
    endpoints, or out-of-range partition indices. *)

val run :
  t ->
  until:Time.t ->
  ?workers:int ->
  ?breaks:Time.t list ->
  ?on_break:(Time.t -> unit) ->
  unit ->
  unit
(** [run t ~until ~workers ~breaks ~on_break ()] drives all partitions
    to [until] (boundary-inclusive, like [Scheduler.run ~until]; every
    partition clock reads [until] afterwards). [workers] (default 1,
    clamped to the partition count) sets how many domains execute
    epochs — any value yields the identical trajectory; past
    {!Engine.Pool.max_jobs} after the clamp it raises
    [Invalid_argument] before any event fires. [breaks] lists
    coordinator instants: for each (deduplicated, ascending) break the
    loop fires every event strictly below it, sets all clocks exactly
    to it, and calls [on_break] from the coordinator with a globally
    quiesced model — the place to start delayed flows and read
    cross-partition gauges. Breaks after [until], and those at or
    before the partitions' clock when [run] is called, are skipped: a
    run continued in slices, or resumed from a restored clock, takes
    each break once. The epochs run as {!Engine.Pool.iter} batches on
    a pool of [workers] domains created for the run. When partition
    events raise, the exception of the lowest-numbered partition that
    raised is re-raised as itself, at any [workers]. *)
