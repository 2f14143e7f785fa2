(* Event tracing: watch the first round trips of a connection in the
   run's trace ring — handshake, the slow-start doubling pattern,
   delayed ACKs. Records both directions of the paper path and the
   sender's window.

     dune exec examples/trace_demo.exe *)

let () =
  (* A quarter second: handshake plus the first few slow-start rounds. *)
  let built =
    Core.Spec.build
      {
        Core.Spec.default with
        Core.Spec.duration = Sim.Time.ms 250;
        record_series = false;
        record_trace = true;
        trace_capacity = 64;
      }
  in
  let tr = Option.get (Core.Spec.trace built) in
  Trace.set_mask tr Trace.Code.(cat_link lor cat_tcp);
  ignore (Core.Spec.execute built);
  print_endline "first moments of a transfer on the ANL->LBNL path";
  print_endline "(SYN handshake, then watch cwnd double each 60 ms round):";
  print_newline ();
  (* Trace source 1 is the forward (data) pipe, 2 the reverse one. *)
  let pipe src = if src = 1 then "anl>lbl" else "lbl>anl" in
  Trace.iter tr (fun ~time_ns ~code ~src ~arg1 ~arg2 ->
      let t = float_of_int time_ns /. 1e9 in
      if code = Trace.Code.link_tx then
        Printf.printf "%.6f %s flow=%d %d bytes\n" t (pipe src) arg1 arg2
      else if code = Trace.Code.tcp_cwnd then
        Printf.printf "%.6f flow %d cwnd %d bytes\n" t src arg1);
  Printf.printf "\n(%d records in total; ring keeps the last %d)\n"
    (Trace.total tr) (Trace.length tr)
