(* The paper's motivating workload: a large memory-to-memory transfer
   (think GridFTP between Argonne and LBNL) instrumented with a
   web100-style variable logger. Produces gridftp_web100.csv with the
   per-250ms variable samples — the kind of trace behind Figure 1.

     dune exec examples/gridftp_transfer.exe *)

let transfer_bytes = 250 * 1000 * 1000 (* 250 MB *)

let run_leg slow_start =
  let built =
    Core.Spec.build
      {
        Core.Spec.default with
        Core.Spec.duration = Sim.Time.sec 60;
        record_series = false;
        flows =
          [
            {
              Core.Spec.default_flow with
              Core.Spec.slow_start;
              workload = Core.Spec.Bulk { bytes = Some transfer_bytes };
            };
          ];
      }
  in
  (* Poll the connection's web100 variables like a userland monitor. *)
  let logger =
    Web100.Logger.start (Core.Spec.sched built) ~period:(Sim.Time.ms 250)
      ~vars:
        [
          Web100.Kis.pkts_out; Web100.Kis.data_bytes_out;
          Web100.Kis.send_stall; Web100.Kis.congestion_signals;
          Web100.Kis.cur_cwnd; Web100.Kis.smoothed_rtt; Web100.Kis.cur_ifq;
        ]
      (Tcp.Sender.stats (List.hd (Core.Spec.tcp_senders built)))
  in
  let r = List.hd (Core.Spec.execute built).Core.Spec.results in
  Web100.Logger.stop logger;
  (r, logger)

let () =
  Printf.printf "Transferring %d MB over the ANL->LBNL path...\n\n"
    (transfer_bytes / 1_000_000);
  List.iter
    (fun name ->
      let r, logger = run_leg name in
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
      Report.Csv.write_string ~path (Web100.Logger.to_csv logger);
      Printf.printf "  web100 samples -> %s\n" path)
    [ "standard"; "restricted" ]
