(** Fixed-size domain pool: the one place the simulator spawns and
    joins domains. It runs every parallel batch — experiment cells,
    serve jobs, chaos cases and the epochs of a partitioned run
    ({!Sim.Partition.run}).

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

val max_jobs : int
(** 128: the most domains the OCaml 5.1 runtime holds at once, the main
    one included. {!create} refuses more, and the [--jobs]/[--domains]
    flags, [Spec] [domains] and [Serve.Supervisor]'s [jobs] are refused
    above it before any domain starts. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at most {!max_jobs}. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (the caller's
    domain works alongside them in {!iter}, keeping [jobs] domains
    busy). Default [jobs]: {!default_jobs}. With [jobs = 1] no domain is
    spawned and every batch is a plain loop in the caller. Raises
    [Invalid_argument] if [jobs < 1] or [jobs > max_jobs], before
    anything spawns; if a spawn fails anyway, the workers already
    spawned are shut down and the failure re-raised. *)

val sequential : t
(** A shared pool of one: no domain, every batch a plain loop. The
    default wherever a [?pool] is optional. *)

val iter : t -> int -> (int -> unit) -> unit
(** [iter t n f] runs [f 0] … [f (n - 1)]: the caller and the workers
    claim indices from one shared counter, and [iter] returns once
    every worker has finished the batch. An index that raises does not
    stop the others; after the batch, the exception of the lowest index
    that raised is re-raised as itself, with its backtrace. With
    [jobs = 1] or [n <= 1] it is a plain loop, which stops at the first
    (so lowest) raising index. Not reentrant: do not call [iter] (or
    {!map}, {!map_collect}) on a pool from inside one of its own
    batches; another pool is fine. Raises [Invalid_argument] on a pool
    that was shut down. *)

type failure = { flabel : string; fexn : exn; fbacktrace : string }
(** One task's captured failure, labeled by its scenario. *)

val map_collect :
  t ->
  label:('a -> string) ->
  f:('a -> 'b) ->
  'a list ->
  ('b, failure) result list
(** [map_collect t ~label ~f xs] runs [f] on every element as one
    {!iter} batch and returns every per-task verdict in the order of
    [xs] — one poisoned cell costs one [Error], never the batch. *)

val map : t -> label:('a -> string) -> f:('a -> 'b) -> 'a list -> 'b list
(** [map t ~label ~f xs] runs [f] on every element as one {!iter} batch
    and returns the results in the order of [xs]. If any task raised,
    re-raises the first failure (in canonical order) as {!Task_failed}
    after the whole batch has finished ([map_collect] with the first
    [Error] re-raised). *)

val shutdown : t -> unit
(** Signal the workers to exit and join them. Idempotent; a pool of one
    has no worker and stays usable. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down on exit,
    normal or exceptional. *)
