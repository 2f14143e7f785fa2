
let test_constructors () =
  Alcotest.(check int) "1 us = 1000 ns"
    (Sim.Time.to_ns_int (Sim.Time.us 1))
    1_000;
  Alcotest.(check int) "1 ms"
    (Sim.Time.to_ns_int (Sim.Time.ms 1))
    1_000_000;
  Alcotest.(check int) "1 s"
    (Sim.Time.to_ns_int (Sim.Time.sec 1))
    1_000_000_000;
  Alcotest.(check int) "of_sec rounds"
    (Sim.Time.to_ns_int (Sim.Time.of_sec 1.5e-9))
    2

let test_roundtrip () =
  Alcotest.(check (float 1e-12))
    "to_sec inverse" 0.125
    (Sim.Time.to_sec (Sim.Time.of_sec 0.125));
  Alcotest.(check (float 1e-9)) "to_ms" 2.5 (Sim.Time.to_ms (Sim.Time.us 2500))

let test_arith () =
  let a = Sim.Time.ms 3 and b = Sim.Time.ms 5 in
  Alcotest.(check int) "add"
    (Sim.Time.to_ns_int (Sim.Time.add a b))
    8_000_000;
  Alcotest.(check int) "sub negative"
    (Sim.Time.to_ns_int (Sim.Time.sub a b))
    (-2_000_000);
  Alcotest.(check bool) "is_negative" true
    (Sim.Time.is_negative (Sim.Time.sub a b));
  Alcotest.(check int) "scale"
    (Sim.Time.to_ns_int (Sim.Time.scale b 0.4))
    2_000_000;
  Alcotest.(check int) "mul_int"
    (Sim.Time.to_ns_int (Sim.Time.mul_int a 4))
    12_000_000

let test_compare () =
  let a = Sim.Time.ms 3 and b = Sim.Time.ms 5 in
  Alcotest.(check bool) "lt" true Sim.Time.(a < b);
  Alcotest.(check bool) "le refl" true Sim.Time.(a <= a);
  Alcotest.(check bool) "gt" true Sim.Time.(b > a);
  Alcotest.(check bool) "min" true
    (Sim.Time.min a b = a);
  Alcotest.(check bool) "max" true
    (Sim.Time.max a b = b);
  Alcotest.(check bool) "infinity dominates" true
    Sim.Time.(Sim.Time.sec 1_000_000 < Sim.Time.infinity)

let test_pp () =
  Alcotest.(check string) "ns" "12ns" (Sim.Time.to_string (Sim.Time.ns 12));
  Alcotest.(check string) "inf" "inf" (Sim.Time.to_string Sim.Time.infinity)

let test_unboxed_int () =
  (* Timestamps are native ints: an exact int round-trip over both
     conversion pairs, and enough headroom for any realistic horizon. *)
  Alcotest.(check int) "of_ns_int/to_ns_int"
    123_456_789
    (Sim.Time.to_ns_int (Sim.Time.of_ns_int 123_456_789));
  (* A century of simulated nanoseconds still fits comfortably. *)
  let century = Sim.Time.mul_int (Sim.Time.sec 86_400) (365 * 100) in
  Alcotest.(check bool) "a century below infinity" true
    Sim.Time.(century < Sim.Time.infinity);
  Alcotest.(check bool) "a century is positive" true
    (Sim.Time.is_positive century)

let qcheck_add_sub =
  QCheck.Test.make ~name:"time add/sub roundtrip" ~count:500
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) ->
      let ta = Sim.Time.ns a and tb = Sim.Time.ns b in
      Sim.Time.sub (Sim.Time.add ta tb) tb = ta)

let suite =
  [
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "comparisons" `Quick test_compare;
    Alcotest.test_case "pretty-printing" `Quick test_pp;
    Alcotest.test_case "unboxed int representation" `Quick test_unboxed_int;
    QCheck_alcotest.to_alcotest qcheck_add_sub;
  ]
