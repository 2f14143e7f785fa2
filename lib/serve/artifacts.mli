(** Run artifacts: every file a run's outcome holds, written by one
    function that [rss_sim run --out], the job service and the tests
    share, so each emits byte-identical files for the same spec. *)

val ensure_dir : string -> unit
(** [mkdir -p]. *)

val sanitize : string -> string
(** Replace everything but [[A-Za-z0-9._-]] with ['-'] — file-name-safe
    labels. *)

val write_outcome :
  dir:string -> Core.Spec.t -> Core.Spec.outcome -> string list
(** Write [<name>_outcome.json]; when the spec records series, the
    per-flow [<name>_<flow>_<tag>.csv] files (tags cwnd, stalls, ifq,
    throughput, srtt); and when the run recorded a trace,
    [<name>_events.csv] (the event ring), [<name>_trace.json] (Chrome
    trace_event) and [<name>_metrics.csv] (the registry's samples, one
    row per sample tick). Creates [dir] as needed; returns the paths
    written, in that order. *)
