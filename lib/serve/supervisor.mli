(** Supervised job service behind [rss_sim serve].

    Accepts Spec-JSON jobs from a spool directory (one [<id>.json] file
    per job) or injected directly, runs them on a domain pool, and
    survives being killed at any instant: every transition is
    journalled ({!Journal}) before it takes effect, checkpoints go to
    per-job snapshot files, and a restarted daemon reconstructs its
    queue from journal + snapshot files + spool scan — completed jobs
    are never re-run, in-flight snapshot-supported jobs resume from
    their last checkpoint, and the resumed artifacts are byte-identical
    to an unbroken run.

    Failure policy: [Invalid_argument] (a malformed or rejected spec)
    is deterministic poison and quarantines immediately; a corrupt
    resume image restarts the job from scratch (deterministic, so
    correct); anything else is treated as transient and retried with
    bounded exponential backoff — [backoff_base * 2^(attempt-1)],
    capped at [backoff_max] — until [max_attempts], then quarantined as
    a replayable artifact embedding the full spec. A quarantined or
    poisoned job never aborts the queue. *)

type config = {
  spool : string;  (** scanned for [*.json] job files *)
  state_dir : string;
      (** journal, snapshots/, outcomes/, quarantine/ live here *)
  jobs : int;  (** worker domains; 1 = sequential *)
  checkpoint_every : Sim.Time.t;  (** simulated time between snapshots *)
  max_attempts : int;
  backoff_base : float;  (** seconds; attempt n waits base * 2^(n-1) *)
  backoff_max : float;  (** backoff ceiling, seconds *)
  deadline : float option;
      (** wall seconds a job may run before the watchdog drains it to
          its snapshot and requeues it (snapshot-supported jobs only) *)
  poll_interval : float;  (** spool scan period, seconds *)
  once : bool;  (** drain the current queue, then return *)
  log : string -> unit;  (** progress lines; [ignore] to silence *)
}

val default_config : config
(** spool [results/serve/spool], state [results/serve/state], 1 job,
    1 s checkpoints, 3 attempts, 50 ms–2 s backoff, no deadline,
    200 ms polling, daemon mode, silent. *)

type stats = {
  completed : int;
  quarantined : int;
  retries : int;
  drains : int;  (** checkpoint-drained slices (stop or deadline) *)
  resumed : int;  (** completions that started from a snapshot *)
}

type runner =
  job_id:string ->
  checkpoint:Core.Spec.checkpoint option ->
  resume_from:string option ->
  Core.Spec.t ->
  Core.Spec.outcome
(** How one attempt executes; the default is {!Core.Spec.run}. Tests
    inject runners that fail on chosen attempts. Runs on a pool worker
    domain, so an injected runner must be thread-safe. *)

val default_runner : runner
(** [Core.Spec.run] — for injected runners that wrap the real thing.
    Only the [serve] tests inject runners; {!run} defaults to this. *)

val run :
  ?stop:bool Atomic.t ->
  ?runner:runner ->
  ?specs:Core.Spec.t list ->
  config ->
  stats
(** Run the service until [stop] is set (checked by in-flight jobs at
    checkpoint boundaries — the graceful drain) or, with [config.once],
    until the queue is empty. [specs] are submitted directly before the
    first spool scan (the stdin path; the job id is the sanitized spec
    name). Raises [Invalid_argument], before the journal opens, when
    [jobs] or [max_attempts] is below 1, [jobs] is above
    {!Engine.Pool.max_jobs}, or [checkpoint_every] is not positive. *)

val snapshot_path : string -> string -> string
(** [snapshot_path state_dir job_id] — where that job checkpoints. Only
    the [serve] tests "crash recovery resumes from snapshot" and
    "graceful stop drains to a snapshot" call it, to plant or find a
    job's image. *)

val quarantine_spec : path:string -> (Core.Spec.t, string) result
(** Re-parse the spec embedded in a quarantine artifact, for replay. A
    file that cannot be read or parsed, or that holds no spec, is an
    error naming the path. *)
