(** Fixed-size domain pool for independent experiment cells.

    Tasks must be pure functions of their inputs: every scenario builds
    its own scheduler and RNG from an explicit seed (see
    {!Sim.Rng.derive_seed}), so nothing mutable is shared between
    tasks. Results come back in submission order regardless of worker
    count or scheduling, which makes aggregated experiment output
    bit-identical under any [--jobs] setting. *)

type t

exception
  Task_failed of { label : string; exn : exn; backtrace : string }
(** Raised by {!map} when a task raised. [label] identifies the
    offending scenario; the rest of the batch still completed and the
    pool remains usable. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (the caller's
    domain participates while waiting in {!map}, keeping [jobs] domains
    busy). Default [jobs]: {!default_jobs}. With [jobs = 1] no domain is
    spawned and {!map} degrades to a sequential map. Raises
    [Invalid_argument] if [jobs < 1]. *)

type failure = { flabel : string; fexn : exn; fbacktrace : string }
(** One task's captured failure, labeled by its scenario. *)

val map_collect :
  t ->
  label:('a -> string) ->
  f:('a -> 'b) ->
  'a list ->
  ('b, failure) result list
(** [map_collect t ~label ~f xs] runs [f] on every element as pool
    tasks and returns every per-task verdict in the order of [xs] —
    one poisoned cell costs one [Error], never the batch. Not
    reentrant: do not call from inside a task. *)

val map : t -> label:('a -> string) -> f:('a -> 'b) -> 'a list -> 'b list
(** [map t ~label ~f xs] runs [f] on every element as pool tasks and
    returns the results in the order of [xs]. Not reentrant: do not
    call [map] from inside a task. If any task raised, re-raises the
    first failure (in canonical order) as {!Task_failed} after the
    whole batch has finished ([map_collect] with the first [Error]
    re-raised). *)

val shutdown : t -> unit
(** Signal the workers to exit and join them. Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down on exit,
    normal or exceptional. *)
