(* The paper's motivating workload: a large memory-to-memory transfer
   (think GridFTP between Argonne and LBNL) with its web100 variables
   sampled every 250 ms through the run's metrics registry. Produces
   gridftp_web100_<variant>.csv — the kind of trace behind Figure 1.

     dune exec examples/gridftp_transfer.exe *)

let transfer_bytes = 250 * 1000 * 1000 (* 250 MB *)

(* The variables a userland monitor would poll, in CSV column order. *)
let vars =
  [
    "PktsOut"; "DataBytesOut"; "SendStall"; "CongestionSignals"; "CurCwnd";
    "SmoothedRTT"; "CurIFQ";
  ]

let run_leg slow_start =
  let outcome =
    Core.Spec.run
      {
        Core.Spec.default with
        Core.Spec.duration = Sim.Time.sec 60;
        record_series = false;
        record_trace = true;
        flows =
          [
            {
              Core.Spec.default_flow with
              Core.Spec.label = Some "gridftp";
              slow_start;
              workload = Core.Spec.Bulk { bytes = Some transfer_bytes };
            };
          ];
      }
  in
  (* The registry is sampled every sample_period (250 ms by default);
     keep the connection's columns for [vars]. *)
  let m = Option.get outcome.Core.Spec.metrics in
  let index = List.mapi (fun i name -> (name, i)) m.Core.Spec.metric_names in
  let columns =
    List.map (fun v -> List.assoc ("conn/gridftp/" ^ v) index) vars
  in
  let rows =
    List.map
      (fun (t, values) -> t :: List.map (fun i -> values.(i)) columns)
      m.Core.Spec.samples
  in
  (List.hd outcome.Core.Spec.results, rows)

let () =
  Printf.printf "Transferring %d MB over the ANL->LBNL path...\n\n"
    (transfer_bytes / 1_000_000);
  List.iter
    (fun name ->
      let r, rows = run_leg name in
      (match r.Core.Spec.completion with
      | Some t ->
          Printf.printf "%-11s finished in %6.2f s (%6.2f Mbit/s), %d \
                         send-stalls\n"
            name (Sim.Time.to_sec t)
            (float_of_int (8 * transfer_bytes) /. Sim.Time.to_sec t /. 1e6)
            r.Core.Spec.send_stalls
      | None ->
          Printf.printf "%-11s did not finish within 60 s (%d stalls)\n" name
            r.Core.Spec.send_stalls);
      let path = Printf.sprintf "results/gridftp_web100_%s.csv" name in
      Report.Csv.write ~path ~header:("time_s" :: vars) ~rows;
      Printf.printf "  web100 samples -> %s\n" path)
    [ "standard"; "restricted" ]
