(** Small CSV writer for experiment artefacts (results/ directory). *)

val cell : float -> string
(** The round-trip float formatting used by {!write}: shortest of
    ["%.6g"]/["%.12g"]/["%.17g"] that parses back to the same float —
    for callers assembling mixed string/number CSV by hand. *)

val write :
  path:string -> header:string list -> rows:float list list -> unit
(** Create parent directories as needed and write one file. Cells are
    formatted with the shortest of ["%.6g"]/["%.12g"]/["%.17g"] that
    round-trips through [float_of_string], so long-run timestamps keep
    full precision while small values stay compact. *)

val write_series :
  path:string -> name:string -> Sim.Stats.Series.t -> unit
(** Two columns: time_s, <name>. *)

val write_string : path:string -> string -> unit
(** Write pre-formatted content (e.g. a {!Trace_event.to_csv} export),
    creating parent directories as needed. *)
