(* Run artifacts, shared by `rss_sim run --out` and the job service: one
   writer means a job completed under `serve` is byte-identical to the
   same spec run by hand — the property the resume-equivalence harness
   diffs against. *)

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
  let base = sanitize spec.Core.Spec.name in
  let path suffix = Filename.concat dir (base ^ suffix) in
  let write suffix contents =
    Report.Csv.write_string ~path:(path suffix) contents;
    path suffix
  in
  let json =
    write "_outcome.json"
      (Report.Json.to_string (Core.Spec.outcome_to_json outcome))
  in
  let series =
    if not spec.Core.Spec.record_series then []
    else
      List.concat_map
        (fun (r : Core.Spec.flow_result) ->
          let flow = sanitize r.Core.Spec.label in
          List.map
            (fun (tag, series) ->
              let csv = path (Printf.sprintf "_%s_%s.csv" flow tag) in
              Report.Csv.write_series ~path:csv ~name:tag series;
              csv)
            [
              ("cwnd", r.Core.Spec.cwnd_series);
              ("stalls", r.Core.Spec.stalls_series);
              ("ifq", r.Core.Spec.ifq_series);
              ("throughput", r.Core.Spec.throughput_series);
              ("srtt", r.Core.Spec.srtt_series);
            ])
        outcome.Core.Spec.results
  in
  let trace =
    match outcome.Core.Spec.trace with
    | None -> []
    | Some tr ->
        [
          write "_events.csv" (Report.Trace_event.to_csv tr);
          write "_trace.json"
            (Report.Trace_event.to_chrome ~name:spec.Core.Spec.name tr);
        ]
  in
  let metrics =
    match outcome.Core.Spec.metrics with
    | None -> []
    | Some m ->
        let csv = path "_metrics.csv" in
        Report.Csv.write ~path:csv
          ~header:("time_s" :: m.Core.Spec.metric_names)
          ~rows:
            (List.map
               (fun (t, values) -> t :: Array.to_list values)
               m.Core.Spec.samples);
        [ csv ]
  in
  (json :: series) @ trace @ metrics
