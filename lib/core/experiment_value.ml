(* The value every experiment driver returns (tables of cells, named
   series and a note), the builders the drivers share, and the value's
   two renderers. Experiments re-exports it; experiments.mli is its
   contract. *)

type cell = Int of int | Float of float | Text of string | Empty
type table = { name : string; columns : string list; rows : cell list list }
type series = { label : string; data : Sim.Stats.Series.t }
type t = { tables : table list; series : series list; note : string }
type experiment = { id : string; title : string }

(* --- building the value ------------------------------------------------- *)

let table ?(name = "") columns rows = { name; columns; rows }
let result ?(series = []) ?(note = "") tables = { tables; series; note }

(* The web100-style counters of one flow, one column each. *)
let flow_columns =
  [
    "label"; "goodput_mbps"; "utilization"; "send_stalls";
    "congestion_signals"; "retransmits"; "timeouts"; "final_cwnd_segments";
    "mean_ifq_packets"; "peak_ifq_packets"; "ce_marks"; "completion_s";
    "time_to_90pct_s";
  ]

let opt_float = function Some x -> Float x | None -> Empty

let flow_cells (r : Spec.flow_result) =
  [
    Text r.Spec.label;
    Float r.Spec.goodput_mbps;
    Float r.Spec.utilization;
    Int r.Spec.send_stalls;
    Int r.Spec.congestion_signals;
    Int r.Spec.retransmits;
    Int r.Spec.timeouts;
    Float r.Spec.final_cwnd_segments;
    Float r.Spec.mean_ifq;
    Float r.Spec.peak_ifq;
    Int r.Spec.ce_marks;
    opt_float (Option.map Sim.Time.to_sec r.Spec.completion);
    opt_float r.Spec.time_to_90pct_util;
  ]

let flow_table rs = table flow_columns (List.map flow_cells rs)

(* Every series a flow records. *)
let flow_series (r : Spec.flow_result) =
  List.map
    (fun data -> { label = r.Spec.label; data })
    [
      r.Spec.stalls_series;
      r.Spec.cwnd_series;
      r.Spec.ifq_series;
      r.Spec.throughput_series;
      r.Spec.srtt_series;
    ]

(* A sweep's flows, one row each behind the sweep point's column [key]. *)
let sweep_table key find ~variants points =
  table (key :: flow_columns)
    (List.concat_map
       (fun point ->
         List.map
           (fun ss -> Int point :: flow_cells (find (point, ss)))
           variants)
       points)

(* --- the renderers ------------------------------------------------------- *)

(* RFC 4180: a field with a comma, quote or line break is quoted. *)
let csv_text s =
  if String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
  then "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_cell = function
  | Int i -> string_of_int i
  | Float x -> Report.Csv.cell x
  | Text s -> csv_text s
  | Empty -> ""

let csv_lines lines =
  String.concat "" (List.map (fun l -> String.concat "," l ^ "\n") lines)

let to_csv ~id t =
  let table_file tb =
    ( (if tb.name = "" then id else id ^ "_" ^ tb.name) ^ ".csv",
      csv_lines (tb.columns :: List.map (List.map csv_cell) tb.rows) )
  in
  let series_rows s =
    let name = csv_text (Sim.Stats.Series.name s.data) in
    List.map
      (fun (time, v) ->
        [ csv_text s.label; name; Report.Csv.cell time; Report.Csv.cell v ])
      (Sim.Stats.Series.to_csv_rows s.data)
  in
  List.map table_file t.tables
  @
  if t.series = [] then []
  else
    [
      ( id ^ "_series.csv",
        csv_lines
          ([ "label"; "series"; "time_s"; "value" ]
          :: List.concat_map series_rows t.series) );
    ]

(* Floats keep at least four significant digits from 1 up: a gain
   margin of 1.0027 reads 1.003, on the stable side of 1, not 1.00. *)
let text_cell = function
  | Int i -> string_of_int i
  | Float x when Float.abs x < 1. -> Printf.sprintf "%.4f" x
  | Float x when Float.abs x < 10. -> Printf.sprintf "%.3f" x
  | Float x -> Report.Table.cell_f x
  | Text s -> s
  | Empty -> "-"

let to_text t =
  let render tb =
    let text_column i =
      List.exists
        (fun row -> match List.nth row i with Text _ -> true | _ -> false)
        tb.rows
    in
    let align i =
      if text_column i then Report.Table.Left else Report.Table.Right
    in
    (if tb.name = "" then "" else tb.name ^ ":\n")
    ^ Report.Table.render
        ~aligns:(List.mapi (fun i _ -> align i) tb.columns)
        ~headers:tb.columns
        ~rows:(List.map (List.map text_cell) tb.rows)
        ()
  in
  let name s = Sim.Stats.Series.name s.data in
  let chart n =
    Report.Ascii_chart.line_chart ~title:n ~x_label:"time (s)" ~y_label:n
      (List.filter_map
         (fun s ->
           if name s = n then
             Some (Report.Ascii_chart.of_series ~label:s.label s.data)
           else None)
         t.series)
  in
  let names =
    List.fold_left
      (fun acc s -> if List.mem (name s) acc then acc else acc @ [ name s ])
      [] t.series
  in
  String.concat "\n"
    (List.map render t.tables
    @ List.map chart names
    @ if t.note = "" then [] else [ t.note ^ "\n" ])
