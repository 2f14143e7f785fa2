(* Packet-level tracing: watch the first round-trips of a connection
   tcpdump-style — handshake, the slow-start doubling pattern, delayed
   ACKs. Taps both directions of the paper path.

     dune exec examples/trace_demo.exe *)

let () =
  (* A quarter second: handshake plus the first few slow-start rounds. *)
  let built =
    Core.Spec.build
      {
        Core.Spec.default with
        Core.Spec.duration = Sim.Time.ms 250;
        record_series = false;
      }
  in
  let tracer = Netsim.Tracer.create ~capacity:48 () in
  Netsim.Tracer.tap tracer ~label:"anl>lbl" (Core.Spec.forward_link built);
  Netsim.Tracer.tap tracer ~label:"lbl>anl" (Core.Spec.reverse_link built);
  ignore (Core.Spec.execute built);
  print_endline "first moments of a transfer on the ANL->LBNL path";
  print_endline "(SYN handshake, then watch cwnd double each 60 ms round):";
  print_newline ();
  List.iter print_endline (Netsim.Tracer.lines tracer);
  Printf.printf "\n(%d packets captured in total; ring keeps the last %d)\n"
    (Netsim.Tracer.captured tracer)
    (List.length (Netsim.Tracer.lines tracer))
