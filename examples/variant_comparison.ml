(* Compare every slow-start policy in the library on one chart: window
   trajectory and cumulative send-stalls over the first 20 seconds.

     dune exec examples/variant_comparison.exe *)

let () =
  let results =
    List.map
      (fun slow_start ->
        let spec =
          {
            Core.Spec.default with
            Core.Spec.duration = Sim.Time.sec 20;
            flows = [ { Core.Spec.default_flow with Core.Spec.slow_start } ];
          }
        in
        List.hd (Core.Spec.run spec).Core.Spec.results)
      [ "standard"; "limited"; "hystart"; "restricted" ]
  in
  print_string
    (Report.Ascii_chart.line_chart ~title:"congestion window (segments)"
       ~x_label:"time (s)" ~y_label:"cwnd"
       (List.map
          (fun (r : Core.Spec.flow_result) ->
            Report.Ascii_chart.of_series ~label:r.Core.Spec.label
              r.Core.Spec.cwnd_series)
          results));
  print_newline ();
  print_string
    (Report.Table.render
       ~aligns:
         [
           Report.Table.Left; Report.Table.Right; Report.Table.Right;
           Report.Table.Right; Report.Table.Right;
         ]
       ~headers:[ "policy"; "goodput(Mb/s)"; "stalls"; "mean IFQ"; "t90(s)" ]
       ~rows:
         (List.map
            (fun (r : Core.Spec.flow_result) ->
              [
                r.Core.Spec.label;
                Report.Table.cell_f r.Core.Spec.goodput_mbps;
                Report.Table.cell_i r.Core.Spec.send_stalls;
                Report.Table.cell_f r.Core.Spec.mean_ifq;
                (match r.Core.Spec.time_to_90pct_util with
                | Some s -> Report.Table.cell_f s
                | None -> "never");
              ])
            results)
       ());
  print_string
    "\nlimited = RFC 3742 Limited Slow-Start; hystart = Hybrid Slow Start;\n\
     restricted = this paper's PID controller on the interface queue.\n"
