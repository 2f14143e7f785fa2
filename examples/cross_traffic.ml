(* §2 of the paper: the interface queue is shared by everything the
   host sends. Here a bursty on-off UDP application shares the sender's
   IFQ with the TCP flow under test; each run reports the TCP flow's
   goodput and send-stalls next to the datagrams its neighbour lost at
   the shared IFQ. The restricted sender leaves 10% headroom by
   construction.

     dune exec examples/cross_traffic.exe *)

let seconds = 20.
let packet_bytes = 1000

let run slow_start =
  (* Flow 0: the TCP transfer under test. Flow 1 (wire flow id 2): the
     bursty neighbour — 20 Mbit/s peak, 50% duty cycle, same IFQ. *)
  let built =
    Core.Spec.build
      {
        Core.Spec.default with
        Core.Spec.name = "cross-traffic";
        seed = 31;
        duration = Sim.Time.of_sec seconds;
        record_series = false;
        flows =
          [
            {
              Core.Spec.default_flow with
              Core.Spec.label = Some slow_start;
              slow_start;
            };
            {
              Core.Spec.default_flow with
              Core.Spec.label = Some "neighbour";
              workload =
                Core.Spec.On_off
                  {
                    peak_rate = Sim.Units.mbps 20.;
                    mean_on = Sim.Time.ms 200;
                    mean_off = Sim.Time.ms 200;
                    packet_bytes;
                  };
            };
          ];
      }
  in
  let neighbour_rx = ref 0 in
  Netsim.Host.register_flow (Core.Spec.dst_host built ~pair:0) ~flow:2
    (fun _ -> incr neighbour_rx);
  match (Core.Spec.execute built).Core.Spec.results with
  | [ tcp; neighbour ] ->
      (* The outcome reports the neighbour's offered load as goodput. *)
      let offered =
        Float.to_int
          (Float.round
             (neighbour.Core.Spec.goodput_mbps *. 1e6 *. seconds
             /. float_of_int (8 * packet_bytes)))
      in
      Printf.printf
        "%-11s tcp=%6.2f Mbit/s stalls=%-3d | neighbour delivered %d/%d \
         datagrams (%.1f%% loss at the shared IFQ)\n"
        slow_start tcp.Core.Spec.goodput_mbps tcp.Core.Spec.send_stalls
        !neighbour_rx offered
        (100. *. float_of_int (offered - !neighbour_rx) /. float_of_int offered)
  | _ -> invalid_arg "cross_traffic: expected two flow results"

let () =
  print_endline
    "TCP bulk flow sharing the host interface queue with a bursty\n\
     on-off UDP application (20 s, ANL->LBNL path):\n";
  run "standard";
  run "restricted"
