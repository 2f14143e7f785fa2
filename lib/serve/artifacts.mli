(** Run artifacts: the outcome files, shared by [rss_sim run --spec
    --out] and the job service so both emit byte-identical files for the
    same spec, and the trace files [rss_sim trace] writes, which the
    trace golden checks. *)

val ensure_dir : string -> unit
(** [mkdir -p]. *)

val sanitize : string -> string
(** Replace everything but [[A-Za-z0-9._-]] with ['-'] — file-name-safe
    labels. *)

val write_outcome :
  dir:string -> Core.Spec.t -> Core.Spec.outcome -> string list
(** Write [<name>_outcome.json] plus, when the spec records series, the
    per-flow [<name>_<flow>_<tag>.csv] files
    (tags cwnd, stalls, ifq, throughput, srtt). Creates [dir] as
    needed; returns the paths written, JSON first. *)

val write_trace :
  dir:string -> Core.Spec.t -> Core.Spec.outcome -> string list
(** Write [<name>_events.csv] (the event ring), [<name>_trace.json]
    (Chrome trace_event) and, when the run kept a metrics registry,
    [<name>_metrics.csv] (its samples, one row per sample tick). Creates
    [dir] as needed; returns the paths written, in that order. Raises
    [Invalid_argument] when the outcome holds no trace. *)
