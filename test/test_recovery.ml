(* Surgical loss-recovery tests: kill exactly chosen segments with the
   link's deterministic drop filter and check the recovery machinery. *)

let mss = 1460

(* Drop the [n]th data segment (0-based, SYN excluded) exactly once. *)
let drop_nth_data n =
  let count = ref (-1) in
  fun (pkt : Netsim.Packet.t) ->
    match pkt.Netsim.Packet.payload with
    | Proto.Payload.Tcp h
      when h.Proto.Tcp_header.payload_len > 0
           && not (Proto.Tcp_header.has_flag h Proto.Tcp_header.Syn) ->
        incr count;
        !count = n
    | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> false

let setup ?config ?slow_start ~filter ~bytes () =
  let sched = Sim.Scheduler.create ~seed:8 () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate:(Sim.Units.mbps 100.)
      ~one_way_delay:(Sim.Time.ms 10) ~ifq_capacity:200 ()
  in
  Netsim.Link.set_drop_filter path.Netsim.Topology.Duplex.a_to_b filter;
  let ids = Netsim.Packet.Id_source.create () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ?config ?slow_start
      ~bytes ()
  in
  (sched, conn)

let test_single_loss_fast_retransmit () =
  let sched, conn =
    setup ~filter:(drop_nth_data 20) ~bytes:(100 * mss) ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  let sender = conn.Tcp.Connection.sender in
  Alcotest.(check int) "complete" (100 * mss) (Tcp.Sender.bytes_acked sender);
  Alcotest.(check int) "exactly one retransmission" 1
    (Tcp.Sender.retransmits sender);
  Alcotest.(check int) "no timeout (fast retransmit did it)" 0
    (Tcp.Sender.timeouts sender);
  let fast = List.assoc "FastRetran" Tcp.Sender.kis sender in
  Alcotest.(check (float 0.)) "one fast-retransmit event" 1. fast

let test_single_loss_newreno () =
  let config = { Tcp.Config.default with use_sack = false } in
  let sched, conn =
    setup ~config ~filter:(drop_nth_data 20) ~bytes:(100 * mss) ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  let sender = conn.Tcp.Connection.sender in
  Alcotest.(check int) "complete without SACK" (100 * mss)
    (Tcp.Sender.bytes_acked sender);
  Alcotest.(check int) "no timeout" 0 (Tcp.Sender.timeouts sender)

let test_burst_loss_sack_recovery () =
  (* Kill five consecutive segments: SACK recovery should retransmit
     exactly those five, still without a timeout. *)
  let count = ref (-1) in
  let filter (pkt : Netsim.Packet.t) =
    match pkt.Netsim.Packet.payload with
    | Proto.Payload.Tcp h when h.Proto.Tcp_header.payload_len > 0 ->
        incr count;
        !count >= 30 && !count < 35
    | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> false
  in
  let sched, conn = setup ~filter ~bytes:(200 * mss) () in
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  let sender = conn.Tcp.Connection.sender in
  Alcotest.(check int) "complete" (200 * mss) (Tcp.Sender.bytes_acked sender);
  Alcotest.(check int) "five retransmissions" 5
    (Tcp.Sender.retransmits sender);
  Alcotest.(check int) "no timeout with SACK" 0 (Tcp.Sender.timeouts sender)

let test_lost_retransmission_needs_rto () =
  (* Drop the 20th data segment AND its first retransmission (same
     sequence number): fast retransmit fails and only the RTO can save
     the connection. *)
  let seen_twenty_seq = ref None in
  let n = ref (-1) in
  let filter (pkt : Netsim.Packet.t) =
    match pkt.Netsim.Packet.payload with
    | Proto.Payload.Tcp h when h.Proto.Tcp_header.payload_len > 0 -> (
        incr n;
        if !n = 20 then begin
          seen_twenty_seq := Some h.Proto.Tcp_header.seq;
          true
        end
        else
          match !seen_twenty_seq with
          | Some seq when Proto.Seqno.equal seq h.Proto.Tcp_header.seq ->
              (* First retransmission of the same segment: drop it too,
                 then let further copies through. *)
              seen_twenty_seq := None;
              true
          | Some _ | None -> false)
    | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> false
  in
  let sched, conn = setup ~filter ~bytes:(100 * mss) () in
  Sim.Scheduler.run ~until:(Sim.Time.sec 30) sched;
  let sender = conn.Tcp.Connection.sender in
  Alcotest.(check int) "complete eventually" (100 * mss)
    (Tcp.Sender.bytes_acked sender);
  Alcotest.(check bool) "needed a timeout" true
    (Tcp.Sender.timeouts sender >= 1)

let test_sack_blocks_flow_back () =
  (* After a hole, the duplicate ACKs flowing back must carry SACK
     blocks describing the out-of-order data. *)
  let sched = Sim.Scheduler.create ~seed:8 () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate:(Sim.Units.mbps 100.)
      ~one_way_delay:(Sim.Time.ms 10) ~ifq_capacity:200 ()
  in
  Netsim.Link.set_drop_filter path.Netsim.Topology.Duplex.a_to_b
    (drop_nth_data 10);
  let saw_sack = ref 0 in
  Netsim.Link.add_tap path.Netsim.Topology.Duplex.b_to_a (fun _ pkt ->
      match pkt.Netsim.Packet.payload with
      | Proto.Payload.Tcp h when h.Proto.Tcp_header.sack_blocks <> [] ->
          incr saw_sack
      | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> ());
  let ids = Netsim.Packet.Id_source.create () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~bytes:(50 * mss) ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 5) sched;
  Alcotest.(check bool) "SACK blocks observed on the wire" true
    (!saw_sack > 0);
  Alcotest.(check int) "one retransmission" 1
    (Tcp.Sender.retransmits conn.Tcp.Connection.sender)

let test_receiver_dup_and_ooo_counters () =
  let sched, conn =
    setup ~filter:(drop_nth_data 10) ~bytes:(50 * mss) ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 5) sched;
  let receiver = conn.Tcp.Connection.receiver in
  Alcotest.(check bool) "out-of-order arrivals recorded" true
    (Tcp.Receiver.out_of_order_segments receiver > 0);
  Alcotest.(check int) "no spurious duplicates" 0
    (Tcp.Receiver.duplicate_segments receiver)

let suite =
  [
    Alcotest.test_case "single loss -> fast retransmit" `Quick
      test_single_loss_fast_retransmit;
    Alcotest.test_case "single loss -> NewReno" `Quick
      test_single_loss_newreno;
    Alcotest.test_case "burst loss -> SACK recovery" `Quick
      test_burst_loss_sack_recovery;
    Alcotest.test_case "lost retransmission -> RTO" `Quick
      test_lost_retransmission_needs_rto;
    Alcotest.test_case "SACK recovery path" `Quick test_sack_blocks_flow_back;
    Alcotest.test_case "receiver OOO counters" `Quick
      test_receiver_dup_and_ooo_counters;
  ]
