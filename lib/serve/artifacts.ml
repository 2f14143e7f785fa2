(* Outcome artifacts, shared by `rss_sim run --spec --out` and the job
   service: one writer means a job completed under `serve` is
   byte-identical to the same spec run by hand — the property the
   resume-equivalence harness diffs against. *)

let rec ensure_dir dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    label

let write_outcome ~dir (spec : Core.Spec.t) (outcome : Core.Spec.outcome) =
  ensure_dir dir;
  let base = sanitize spec.Core.Spec.name in
  let json_path = Filename.concat dir (base ^ "_outcome.json") in
  let oc = open_out json_path in
  output_string oc
    (Report.Json.to_string (Core.Spec.outcome_to_json outcome));
  close_out oc;
  let csvs =
    if not spec.Core.Spec.record_series then []
    else
      List.concat_map
        (fun (r : Core.Spec.flow_result) ->
          List.map
            (fun (tag, series) ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "%s_%s_%s.csv" base
                     (sanitize r.Core.Spec.label) tag)
              in
              Report.Csv.write_series ~path ~name:tag series;
              path)
            [
              ("cwnd", r.Core.Spec.cwnd_series);
              ("stalls", r.Core.Spec.stalls_series);
              ("ifq", r.Core.Spec.ifq_series);
              ("throughput", r.Core.Spec.throughput_series);
              ("srtt", r.Core.Spec.srtt_series);
            ])
        outcome.Core.Spec.results
  in
  json_path :: csvs

let write_trace ~dir (spec : Core.Spec.t) (outcome : Core.Spec.outcome) =
  let tr =
    match outcome.Core.Spec.trace with
    | Some tr -> tr
    | None -> invalid_arg "Artifacts.write_trace: the run recorded no trace"
  in
  let base = sanitize spec.Core.Spec.name in
  let path suffix = Filename.concat dir (base ^ suffix) in
  let events = path "_events.csv" and chrome = path "_trace.json" in
  Report.Csv.write_string ~path:events (Report.Trace_event.to_csv tr);
  Report.Csv.write_string ~path:chrome
    (Report.Trace_event.to_chrome ~name:spec.Core.Spec.name tr);
  match outcome.Core.Spec.metrics with
  | None -> [ events; chrome ]
  | Some m ->
      let metrics = path "_metrics.csv" in
      Report.Csv.write ~path:metrics
        ~header:("time_s" :: m.Core.Spec.metric_names)
        ~rows:
          (List.map
             (fun (t, values) -> t :: Array.to_list values)
             m.Core.Spec.samples);
      [ events; chrome; metrics ]
