(** Chaos sweeps: randomized fault schedules driven through whole
    scenarios, with invariant checking and deterministic failure
    replay.

    Every case is pure data — a {!Spec.t} (whose fault profiles carry
    the impairments) plus the harness's invariant knobs — and running
    it is a pure function of that data. The harness samples a canonical
    trace while the simulation runs and checks structural invariants at
    the end (termination, post-outage progress, packet conservation,
    monotone counters, optional completion). A failing case serializes
    to JSON under [results/chaos_failures/] and {!replay} re-runs it
    from the artifact, byte-identical at any [--jobs] setting. *)

type case = {
  spec : Spec.t;
      (** the scenario; the harness drives its first TCP flow *)
  progress_rtos : int;
      (** progress deadline after the last outage, in units of the
          flow's max RTO *)
  check_completion : bool;
      (** require the flow's byte budget acked within the duration *)
}

(** {2 Cases and runs}

    Code builds its cases with {!random_cases} and runs them with
    {!run_sweep}. {!make_case}, {!default_case}, {!adjust},
    {!case_max_rto} and {!run_case} are called only by the [core.chaos]
    tests, which build and run one hand-written case at a time ("2xRTO
    outage, both variants", "poisoned cell captured, batch drains",
    "sweep identical across jobs"). *)

val make_case :
  ?name:string ->
  ?seed:int ->
  ?variant:string ->
  ?rate:Sim.Units.rate ->
  ?one_way_delay:Sim.Time.t ->
  ?ifq_capacity:int ->
  ?duration:Sim.Time.t ->
  ?bytes:int option ->
  ?max_rto:Sim.Time.t ->
  ?progress_rtos:int ->
  ?check_completion:bool ->
  ?forward:Netsim.Fault_model.profile ->
  ?reverse:Netsim.Fault_model.profile ->
  unit ->
  case
(** A single-bulk-flow duplex case. Defaults are the paper's testbed
    path (100 Mbit/s, 60 ms RTT, IFQ 100), 20 s horizon, 400-segment
    transfer ([bytes]), 2 s RTO ceiling, 4-RTO progress window,
    completion checked, no faults. [variant] names the flow's
    controllers ({!Tcp.Policy.by_name}). *)

val default_case : case
(** [make_case ()]. *)

val adjust :
  ?variant:string ->
  ?duration:Sim.Time.t ->
  ?check_completion:bool ->
  case ->
  case
(** Tweak the spec-embedded knobs of a single-flow case. *)

val case_name : case -> string
val case_max_rto : case -> Sim.Time.t
(** The first flow's RTO ceiling (TCP default when unset). *)

type outcome = {
  case : case;
  completed : bool;
  bytes_acked : int;
  timeouts : int;
  retransmits : int;
  violations : string list;  (** empty iff every invariant held *)
  trace : string;
      (** canonical CSV sampled every [spec.sample_period] — the
          byte-identical replay witness *)
}

val passed : outcome -> bool

val run_case : case -> outcome
(** {!Spec.build} the scenario, attach the trace sampler and progress
    invariant, {!Spec.execute}, and check invariants (packet
    conservation only on duplex topologies, where the measured hosts
    sit directly on the measured links). Deterministic in [case].
    Raises [Invalid_argument] on an unknown variant, an invalid fault
    profile, or a case whose spec has no TCP flow starting at t=0. *)

val run_sweep : ?pool:Engine.Pool.t -> case list -> outcome list
(** Run every case, capturing per-case exceptions as an
    ["exception: ..."] violation so one poisoned cell never loses the
    rest of the batch. Results are in input order and byte-identical
    at any [pool] size (default {!Engine.Pool.sequential}). *)

(** {2 Random schedule generation} *)

val random_case : root:int -> index:int -> case
(** A random fault schedule under [Sim.Rng.derive_seed ~root
    ~stream:index]: Gilbert–Elliott burst loss (~70% of cases),
    reordering (~50%), duplication (~40%), 0–2 outage windows, 0–1
    delay steps, occasionally a lightly-impaired ACK path. Variants
    alternate standard/restricted by index parity. Deterministic in
    [(root, index)]. Code calls it through {!random_cases}; the
    [core.chaos] test "case JSON round-trip" calls it directly. *)

val random_cases : root:int -> int -> case list
(** [random_cases ~root n] is indices [0 .. n-1]. *)

(** {2 Serialization and replay}

    A case and a failure artifact are each described once with
    {!Codec}, which writes and strictly decodes them as it does a spec.
    Code reaches both descriptions through {!write_failures} and
    {!replay}. {!case_to_json} and {!case_of_json} are the case's alone,
    for the [core.chaos] tests "case JSON round-trip", "case JSON error
    reporting", "case JSON refuses unknown keys" and "case and artifact
    bytes pinned"; "artifact JSON refuses malformed values" calls
    {!load_artifact} directly. *)

val case_to_json : case -> Report.Json.t
(** [{"spec": ..., "progress_rtos": ..., "check_completion": ...}] with
    the spec in {!Spec.to_json} form. *)

val case_of_json : Report.Json.t -> (case, string) result
(** Inverse of {!case_to_json}, strict as {!Spec.of_json} is: errors
    name the key's path, and a key outside those three (keys that start
    with [_] are free) or a non-integral [progress_rtos] is refused.
    [progress_rtos] and [check_completion] default when absent. *)

val write_failures : dir:string -> outcome list -> string list
(** Write one [<name>.json] artifact per failed outcome into [dir]
    (created if missing); returns the paths written. *)

type artifact = {
  artifact_case : case;
  artifact_violations : string list;
  artifact_completed : bool;
  artifact_bytes_acked : int;
  artifact_trace : string;
}
(** A failure artifact's five keys: [case], [violations], [completed],
    [bytes_acked] and [trace]. *)

val load_artifact : string -> (artifact, string) result
(** Read an artifact {!write_failures} wrote; a file that cannot be read
    or parsed is refused with its path. Every key is required and
    decoded as strictly as {!case_of_json} decodes a case: a missing,
    unknown or repeated key, a non-string violation or a non-integral
    [bytes_acked] is refused by name. *)

val replay : string -> (outcome * bool, string) result
(** Re-run the case stored in a failure artifact. The boolean is [true]
    when the fresh run's trace and violations match the artifact
    byte-for-byte — the determinism check [rss_sim chaos --replay]
    reports. *)
