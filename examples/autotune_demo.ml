(* Replay the paper's §3 tuning procedure end to end:

   1. run the Ziegler-Nichols ultimate-gain experiment against the LIVE
      simulated host (P-only control of the interface queue, raising the
      gain until sustained oscillation);
   2. derive gains with the paper's rule Kp=0.33Kc, Ti=0.5Tc, Td=0.33Tc
      (and the classic ZN and Tyreus-Luyben rules for comparison);
   3. run Restricted Slow-Start with each gain set.

     dune exec examples/autotune_demo.exe *)

let evaluate label config =
  let spec =
    {
      Core.Spec.default with
      Core.Spec.name = label;
      duration = Sim.Time.sec 15;
      flows =
        [
          {
            Core.Spec.default_flow with
            Core.Spec.label = Some label;
            slow_start = "restricted";
            restricted = Some config;
          };
        ];
    }
  in
  let r = List.hd (Core.Spec.run spec).Core.Spec.results in
  Printf.printf "  %-28s %6.2f Mbit/s, %d stall(s), mean IFQ %5.1f pkts\n"
    label r.Core.Spec.goodput_mbps r.Core.Spec.send_stalls
    r.Core.Spec.mean_ifq

let () =
  print_endline "Step 1: ultimate-gain experiment on the simulated IFQ plant";
  match Core.Calibrate.ultimate_gain () with
  | Error e -> Printf.printf "  measurement failed: %s\n" e
  | Ok result ->
      let critical = result.Control.Ziegler_nichols.critical in
      Format.printf "  critical point: %a (%d closed-loop probes)@."
        Control.Tuning.pp_critical critical
        (List.length result.Control.Ziegler_nichols.runs);
      List.iter
        (fun (run : Control.Ziegler_nichols.closed_loop_run) ->
          Format.printf "    Kp=%-8.4g -> %a@." run.Control.Ziegler_nichols.kp
            Control.Oscillation.pp_verdict
            run.Control.Ziegler_nichols.verdict)
        (List.filteri
           (fun i _ -> i < 8)
           result.Control.Ziegler_nichols.runs);
      print_endline "\nStep 2+3: tuning rules applied to the measurement";
      let with_gains gains =
        { Tcp.Slow_start.default_restricted_config with Tcp.Slow_start.gains }
      in
      evaluate "paper rule (0.33/0.5/0.33)"
        (with_gains (Control.Tuning.paper_pid critical));
      evaluate "classic ZN PID"
        (with_gains (Control.Tuning.zn_pid critical));
      evaluate "Tyreus-Luyben"
        (with_gains (Control.Tuning.tyreus_luyben critical));
      evaluate "shipped defaults"
        Tcp.Slow_start.default_restricted_config;
      print_endline
        "\nThe naive ultimate-gain experiment measures the clipped\n\
         bang-bang limit cycle of this strongly nonlinear plant (the\n\
         queue is pinned at 0 until the pipe's BDP is filled, and the\n\
         response to window increases is much faster than to decreases),\n\
         so it underestimates Tc and every rule derived from it ramps\n\
         too hard and overruns the queue once. The shipped defaults come\n\
         from the linearized analysis (Tc = 2 RTT) documented in\n\
         DESIGN.md — gain scheduling in practice, exactly why the paper\n\
         calls its controller gains 'configurable'."
