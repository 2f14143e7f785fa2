let seq = Proto.Seqno.of_int

let test_wraparound () =
  let near_max = Proto.Seqno.of_int 0xFFFF_FFF0 in
  let wrapped = Proto.Seqno.add near_max 0x20 in
  Alcotest.(check int) "wraps to small" 0x10
    (Int32.to_int (wrapped :> int32));
  (* Modular order: the wrapped value is "after" near_max. *)
  Alcotest.(check int) "diff across wrap" 0x20
    (Proto.Seqno.diff wrapped near_max)

let test_diff_negative () =
  Alcotest.(check int) "backward diff" (-100)
    (Proto.Seqno.diff (seq 0) (seq 100))

let qcheck_add_diff =
  QCheck.Test.make ~name:"diff (add s n) s = n (|n| < 2^31)" ~count:500
    QCheck.(pair (int_bound 0xFFFFFFF) (int_range (-1_000_000) 1_000_000))
    (fun (base, n) ->
      let s = Proto.Seqno.of_int base in
      Proto.Seqno.diff (Proto.Seqno.add s n) s = n)

let test_header_sizes () =
  let header =
    {
      Proto.Tcp_header.src_port = 1;
      dst_port = 1;
      seq = seq 0;
      ack = seq 0;
      is_ack = false;
      flags = [];
      wnd = 65535;
      payload_len = 1460;
      sack_blocks = [];
      ts_val = Sim.Time.zero;
      ts_ecr = Sim.Time.zero;
    }
  in
  Alcotest.(check int) "wire size" 1500 (Proto.Tcp_header.wire_size header);
  Alcotest.(check int) "payload wire size" 1500
    (Proto.Payload.wire_size (Proto.Payload.Tcp header));
  Alcotest.(check int) "udp wire size" 1028
    (Proto.Payload.wire_size (Proto.Payload.Udp { seq = 0; payload_len = 1000 }))

let test_data_end () =
  let base =
    {
      Proto.Tcp_header.src_port = 1;
      dst_port = 1;
      seq = seq 100;
      ack = seq 0;
      is_ack = false;
      flags = [];
      wnd = 0;
      payload_len = 50;
      sack_blocks = [];
      ts_val = Sim.Time.zero;
      ts_ecr = Sim.Time.zero;
    }
  in
  Alcotest.(check int) "data_end plain" 150
    (Int32.to_int (Proto.Tcp_header.data_end base :> int32));
  let syn = { base with Proto.Tcp_header.flags = [ Proto.Tcp_header.Syn ] } in
  Alcotest.(check int) "SYN occupies one" 151
    (Int32.to_int (Proto.Tcp_header.data_end syn :> int32))

let suite =
  [
    Alcotest.test_case "wraparound" `Quick test_wraparound;
    Alcotest.test_case "negative diff" `Quick test_diff_negative;
    QCheck_alcotest.to_alcotest qcheck_add_diff;
    Alcotest.test_case "header sizes" `Quick test_header_sizes;
    Alcotest.test_case "data_end with flags" `Quick test_data_end;
  ]
