let make_path () =
  let sched = Sim.Scheduler.create ~seed:2 () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate:(Sim.Units.mbps 100.)
      ~one_way_delay:(Sim.Time.ms 5) ~ifq_capacity:100 ()
  in
  (sched, path, Netsim.Packet.Id_source.create ())

let test_cbr_rate () =
  let sched, path, ids = make_path () in
  let received = ref 0 in
  Netsim.Host.register_flow path.Netsim.Topology.Duplex.b ~flow:7 (fun _ ->
      incr received);
  let cbr =
    Workload.Cbr.start ~host:path.Netsim.Topology.Duplex.a ~dst:1 ~flow:7 ~ids
      ~rate:(Sim.Units.mbps 10.) ~packet_bytes:1000 ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 2) sched;
  (* 10 Mbit/s of 1028-byte datagrams ≈ 1216 pkt/s → ~2430 in 2 s. *)
  Alcotest.(check bool) "rate within 5%" true
    (!received > 2300 && !received < 2550);
  (* A handful of datagrams may still be in flight at the horizon. *)
  let sent = Workload.Cbr.packets_sent cbr in
  Alcotest.(check bool) "conservation up to in-flight" true
    (!received <= sent && !received >= sent - 10)

let test_cbr_stop_at () =
  let sched, path, ids = make_path () in
  let cbr =
    Workload.Cbr.start ~host:path.Netsim.Topology.Duplex.a ~dst:1 ~flow:7 ~ids
      ~rate:(Sim.Units.mbps 10.) ~stop_at:(Sim.Time.sec 1) ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 3) sched;
  let after_1s = Workload.Cbr.packets_sent cbr in
  Alcotest.(check bool) "stopped at 1s" true
    (after_1s < 1400 && after_1s > 1100)

let test_on_off_mean_rate () =
  let sched, path, ids = make_path () in
  let rng = Sim.Rng.of_seed 77 in
  let src =
    Workload.On_off.start ~host:path.Netsim.Topology.Duplex.a ~dst:1 ~flow:8
      ~ids ~rng ~peak_rate:(Sim.Units.mbps 20.) ~mean_on:(Sim.Time.ms 100)
      ~mean_off:(Sim.Time.ms 100) ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  (* Expected ≈ 10 Mbit/s × 10 s / 8224 bit = ~12160; allow wide noise. *)
  let sent = Workload.On_off.packets_sent src in
  Alcotest.(check bool) "on-off long-run rate plausible" true
    (sent > 7_000 && sent < 17_000)

let test_short_flows_complete () =
  let sched, path, ids = make_path () in
  let rng = Sim.Rng.of_seed 5 in
  let sf =
    Workload.Short_flows.start ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~ids ~rng ~arrival_rate:20.
      ~mean_size:20_000 ~stop_at:(Sim.Time.sec 3) ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  let launched = Workload.Short_flows.launched sf in
  let completed = List.length (Workload.Short_flows.completions sf) in
  Alcotest.(check bool) "flows launched" true (launched > 30);
  Alcotest.(check bool) "most completed" true
    (float_of_int completed > 0.9 *. float_of_int launched);
  (* Completion times are causally ordered per flow. *)
  List.iter
    (fun (c : Workload.Short_flows.completed) ->
      if Sim.Time.(c.Workload.Short_flows.finished < c.Workload.Short_flows.started)
      then Alcotest.fail "finished before started")
    (Workload.Short_flows.completions sf)

let test_bulk_completion_time () =
  let sched, path, ids = make_path () in
  let b =
    Workload.Bulk.start ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~bytes:1_000_000 ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  match Workload.Bulk.completion_time b with
  | Some t ->
      Alcotest.(check bool) "finished in reasonable time" true
        (Sim.Time.to_sec t < 2.)
  | None -> Alcotest.fail "bulk transfer incomplete"

let suite =
  [
    Alcotest.test_case "CBR rate" `Quick test_cbr_rate;
    Alcotest.test_case "CBR stop_at" `Quick test_cbr_stop_at;
    Alcotest.test_case "on-off mean rate" `Quick test_on_off_mean_rate;
    Alcotest.test_case "short flows complete" `Slow test_short_flows_complete;
    Alcotest.test_case "bulk completion time" `Quick test_bulk_completion_time;
  ]
