let test_rates () =
  Alcotest.(check (float 1e-9)) "mbps" 1e8 (Sim.Units.mbps 100.);
  Alcotest.(check (float 1e-9)) "gbps" 1e9 (Sim.Units.gbps 1.);
  Alcotest.(check (float 1e-9)) "to_mbps" 100.
    (Sim.Units.rate_to_mbps (Sim.Units.mbps 100.))

let test_tx_time () =
  (* 1500 bytes at 100 Mbit/s = 120 µs. *)
  let t = Sim.Units.tx_time (Sim.Units.mbps 100.) ~bytes:1500 in
  Alcotest.(check (float 1e-6)) "serialization delay" 120e-6 (Sim.Time.to_sec t)

let test_bytes_in () =
  Alcotest.(check (float 1e-6)) "bytes in 1s at 8 bit/s" 1.
    (Sim.Units.bytes_in 8. (Sim.Time.sec 1))

let test_bdp () =
  (* 100 Mbit/s × 60 ms = 750 kB = 500 × 1500 B. *)
  Alcotest.(check (float 1e-6)) "bdp packets" 500.
    (Sim.Units.bdp_packets (Sim.Units.mbps 100.) ~rtt:(Sim.Time.ms 60)
       ~packet_bytes:1500)

let qcheck_txtime_linear =
  QCheck.Test.make ~name:"tx_time linear in size" ~count:200
    QCheck.(int_range 1 100_000)
    (fun bytes ->
      let r = Sim.Units.mbps 100. in
      let t1 = Sim.Time.to_sec (Sim.Units.tx_time r ~bytes) in
      let t2 = Sim.Time.to_sec (Sim.Units.tx_time r ~bytes:(2 * bytes)) in
      Float.abs (t2 -. (2. *. t1)) < 2e-9)

let suite =
  [
    Alcotest.test_case "rate constructors" `Quick test_rates;
    Alcotest.test_case "tx_time" `Quick test_tx_time;
    Alcotest.test_case "bytes_in" `Quick test_bytes_in;
    Alcotest.test_case "bdp" `Quick test_bdp;
    QCheck_alcotest.to_alcotest qcheck_txtime_linear;
  ]
