(** Drivers for every reproduced figure/table (see DESIGN.md §5), run
    with [rss_sim experiments [ID…]].

    Each driver runs simulations and returns one {!t}: named tables,
    named series and a note. {!to_csv} and {!to_text} are its only
    renderers. All runs are deterministic: each independent experiment
    cell runs as one task on [?pool] (default
    {!Engine.Pool.sequential}), and the value is bit-identical at any
    pool size. *)

type cell = Int of int | Float of float | Text of string | Empty

type table = {
  name : string;  (** [""] for the experiment's main table *)
  columns : string list;
      (** each name carries its unit: [goodput_mbps], [rtt_ms] *)
  rows : cell list list;
}

type series = {
  label : string;  (** the run it belongs to, as in its table row *)
  data : Sim.Stats.Series.t;  (** named after what it samples *)
}

type t = { tables : table list; series : series list; note : string }

type experiment = { id : string; title : string }

val catalog : experiment list
(** fig1, table1, e2 … e14, arena and meanfield, in that order. *)

val run : ?pool:Engine.Pool.t -> ?duration:Sim.Time.t -> string -> t
(** [run id] runs one experiment of the catalog at its paper horizon,
    or at [duration]; table1 then runs that one horizon instead of
    25 s and 60 s. Raises [Invalid_argument] on an unknown id. *)

val to_csv : id:string -> t -> (string * string) list
(** File name and contents: each table as [<id>.csv] or
    [<id>_<table>.csv], then every series in one long [<id>_series.csv]
    with the columns [label,series,time_s,value]. Floats use
    {!Report.Csv.cell}; an [Empty] cell is an empty field. *)

val to_text : t -> string
(** Console rendering: each table through {!Report.Table.render}, one
    {!Report.Ascii_chart} per series name, then the note. *)
