let ms = Sim.Time.ms

let test_initial_rto () =
  let e = Tcp.Rtt_estimator.create () in
  Alcotest.(check (float 1e-9)) "1s before any sample" 1000.
    (Sim.Time.to_ms (Tcp.Rtt_estimator.rto e));
  Alcotest.(check bool) "no srtt" true (Tcp.Rtt_estimator.srtt e = None)

let test_first_sample () =
  let e = Tcp.Rtt_estimator.create () in
  Tcp.Rtt_estimator.sample e (ms 100);
  (match Tcp.Rtt_estimator.srtt e with
  | Some s -> Alcotest.(check (float 1e-9)) "srtt = R" 100. (Sim.Time.to_ms s)
  | None -> Alcotest.fail "srtt unset");
  (* RTO = SRTT + 4·RTTVAR = 100 + 4·50 = 300 ms. *)
  Alcotest.(check (float 1e-9)) "rto after first" 300.
    (Sim.Time.to_ms (Tcp.Rtt_estimator.rto e))

let test_smoothing () =
  let e = Tcp.Rtt_estimator.create () in
  Tcp.Rtt_estimator.sample e (ms 100);
  Tcp.Rtt_estimator.sample e (ms 200);
  (* SRTT = 7/8·100 + 1/8·200 = 112.5; RTTVAR = 3/4·50 + 1/4·100 = 62.5. *)
  (match Tcp.Rtt_estimator.srtt e with
  | Some s -> Alcotest.(check (float 1e-6)) "srtt" 112.5 (Sim.Time.to_ms s)
  | None -> Alcotest.fail "srtt unset");
  match Tcp.Rtt_estimator.rttvar e with
  | Some v -> Alcotest.(check (float 1e-6)) "rttvar" 62.5 (Sim.Time.to_ms v)
  | None -> Alcotest.fail "rttvar unset"

let test_min_rto_floor () =
  let e = Tcp.Rtt_estimator.create () in
  for _ = 1 to 20 do
    Tcp.Rtt_estimator.sample e (ms 1)
  done;
  Alcotest.(check bool) "clamped to 200ms floor" true
    (Sim.Time.to_ms (Tcp.Rtt_estimator.rto e) >= 200.)

let test_backoff () =
  let e = Tcp.Rtt_estimator.create () in
  Tcp.Rtt_estimator.sample e (ms 100);
  let base = Sim.Time.to_ms (Tcp.Rtt_estimator.rto e) in
  Tcp.Rtt_estimator.backoff e;
  Alcotest.(check (float 1e-6)) "doubled" (2. *. base)
    (Sim.Time.to_ms (Tcp.Rtt_estimator.rto e));
  Tcp.Rtt_estimator.backoff e;
  Alcotest.(check (float 1e-6)) "doubled again" (4. *. base)
    (Sim.Time.to_ms (Tcp.Rtt_estimator.rto e));
  Tcp.Rtt_estimator.reset_backoff e;
  Alcotest.(check (float 1e-6)) "reset" base
    (Sim.Time.to_ms (Tcp.Rtt_estimator.rto e))

let test_max_rto_cap () =
  let e = Tcp.Rtt_estimator.create () in
  Tcp.Rtt_estimator.sample e (Sim.Time.sec 10);
  for _ = 1 to 10 do
    Tcp.Rtt_estimator.backoff e
  done;
  Alcotest.(check bool) "capped at 60s" true
    (Sim.Time.to_sec (Tcp.Rtt_estimator.rto e) <= 60.)

let test_min_rtt_tracking () =
  let e = Tcp.Rtt_estimator.create () in
  Tcp.Rtt_estimator.sample e (ms 80);
  Tcp.Rtt_estimator.sample e (ms 60);
  Tcp.Rtt_estimator.sample e (ms 90);
  match Tcp.Rtt_estimator.min_rtt e with
  | Some m -> Alcotest.(check (float 1e-9)) "min" 60. (Sim.Time.to_ms m)
  | None -> Alcotest.fail "min_rtt unset"

let qcheck_rto_positive =
  QCheck.Test.make ~name:"RTO stays in [min_rto, max_rto]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 1 5_000))
    (fun samples_ms ->
      let e = Tcp.Rtt_estimator.create () in
      List.iter (fun m -> Tcp.Rtt_estimator.sample e (ms m)) samples_ms;
      let rto = Sim.Time.to_ms (Tcp.Rtt_estimator.rto e) in
      rto >= 200. && rto <= 60_000.)

let suite =
  [
    Alcotest.test_case "initial RTO" `Quick test_initial_rto;
    Alcotest.test_case "first sample" `Quick test_first_sample;
    Alcotest.test_case "EWMA smoothing" `Quick test_smoothing;
    Alcotest.test_case "min RTO floor" `Quick test_min_rto_floor;
    Alcotest.test_case "exponential backoff" `Quick test_backoff;
    Alcotest.test_case "max RTO cap" `Quick test_max_rto_cap;
    Alcotest.test_case "min RTT tracking" `Quick test_min_rtt_tracking;
    QCheck_alcotest.to_alcotest qcheck_rto_positive;
  ]
