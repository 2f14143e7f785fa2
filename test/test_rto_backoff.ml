(* RTO exponential backoff across multi-RTO outages, backoff reset on
   new data, and Karn's rule against stale duplicate ACKs. *)

let mss = 1460

let setup ?config ?fault ~bytes () =
  let sched = Sim.Scheduler.create ~seed:8 () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate:(Sim.Units.mbps 100.)
      ~one_way_delay:(Sim.Time.ms 10) ~ifq_capacity:200 ()
  in
  (match fault with
  | None -> ()
  | Some profile ->
      let m =
        Netsim.Fault_model.create ~rng:(Sim.Rng.of_seed 21) profile
      in
      Netsim.Fault_model.install m path.Netsim.Topology.Duplex.a_to_b);
  let ids = Netsim.Packet.Id_source.create () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ?config ~bytes ()
  in
  (sched, path, conn)

let blackout_profile =
  {
    Netsim.Fault_model.passthrough with
    Netsim.Fault_model.schedule =
      [
        Netsim.Fault_model.Outage
          { start = Sim.Time.sec 1; stop = Sim.Time.sec 7 };
      ];
  }

let test_backoff_doubles_and_clamps () =
  let max_rto = Sim.Time.ms 1600 in
  let config = { Tcp.Config.default with max_rto } in
  (* 20 MB: still streaming when the 6-second blackout hits at t=1s. *)
  let sched, _path, conn =
    setup ~config ~fault:blackout_profile ~bytes:(14_000 * mss) ()
  in
  let sender = conn.Tcp.Connection.sender in
  let probes = ref [] in
  for i = 1 to 58 do
    (* Every 100 ms through the blackout: backoff trajectory + RTO cap. *)
    ignore
      (Sim.Scheduler.at sched
         (Sim.Time.ms (1000 + (i * 100)))
         (fun () ->
           probes :=
             (Tcp.Sender.rto_backoff sender, Tcp.Sender.rto sender) :: !probes))
  done;
  Sim.Scheduler.run ~until:(Sim.Time.sec 20) sched;
  let probes = List.rev !probes in
  Alcotest.(check bool) "at least 3 consecutive timeouts" true
    (Tcp.Sender.timeouts sender >= 3);
  let in_blackout = List.filteri (fun i _ -> i < 58) probes in
  let rec non_decreasing = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "backoff never shrinks during the blackout" true
    (non_decreasing in_blackout);
  let max_backoff =
    List.fold_left (fun acc (b, _) -> max acc b) 1 in_blackout
  in
  Alcotest.(check bool)
    (Printf.sprintf "backoff doubled repeatedly (reached %d)" max_backoff)
    true (max_backoff >= 8);
  List.iter
    (fun (_, rto) ->
      Alcotest.(check bool) "RTO clamped at max_rto" true
        Sim.Time.(rto <= max_rto))
    probes;
  (match List.rev in_blackout with
  | (_, rto_late) :: _ ->
      Alcotest.(check bool) "late-blackout RTO sits at the cap" true
        (rto_late = max_rto)
  | [] -> Alcotest.fail "no probes recorded");
  (* Recovery: the transfer finishes and the first new-data ACK resets
     the multiplier (Karn). *)
  Alcotest.(check int) "transfer completes after the blackout"
    (14_000 * mss)
    (Tcp.Sender.bytes_acked sender);
  Alcotest.(check int) "backoff reset by new data" 1
    (Tcp.Sender.rto_backoff sender)

let test_karn_stale_duplicate_does_not_poison_rtt () =
  (* Deliver data segment #30 twice, the copy 500 ms late. The stale
     copy provokes a duplicate ACK echoing a 500 ms-old timestamp; under
     Karn's rule that ACK (no una advance) must not feed the estimator,
     so SRTT stays at path scale. *)
  let sched, path, conn = setup ~bytes:(50 * mss) () in
  let count = ref (-1) in
  Netsim.Link.set_fault_hook path.Netsim.Topology.Duplex.a_to_b
    (fun _now pkt ->
      match pkt.Netsim.Packet.payload with
      | Proto.Payload.Tcp h when h.Proto.Tcp_header.payload_len > 0 ->
          incr count;
          if !count = 30 then [ Sim.Time.zero; Sim.Time.ms 500 ]
          else [ Sim.Time.zero ]
      | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> [ Sim.Time.zero ]);
  Sim.Scheduler.run ~until:(Sim.Time.sec 5) sched;
  let sender = conn.Tcp.Connection.sender in
  Alcotest.(check int) "complete" (50 * mss) (Tcp.Sender.bytes_acked sender);
  Alcotest.(check bool) "receiver saw the duplicate" true
    (Tcp.Receiver.duplicate_segments conn.Tcp.Connection.receiver >= 1);
  (match Tcp.Sender.srtt sender with
  | None -> Alcotest.fail "no RTT estimate"
  | Some srtt ->
      Alcotest.(check bool)
        (Printf.sprintf "SRTT %.1f ms stays at path scale"
           (Sim.Time.to_ms srtt))
        true
        Sim.Time.(srtt < Sim.Time.ms 100));
  Alcotest.(check bool) "RTO not inflated by the stale echo" true
    Sim.Time.(Tcp.Sender.rto sender < Sim.Time.ms 400)

let test_sender_restarts_after_early_blackout () =
  (* The outage opens 200 ms in, while the window is still growing out
     of slow-start, and lasts 5 s — many consecutive RTO firings with
     zero feedback. The connection must pick itself up afterwards and
     finish off the go-back-N + backoff machinery alone. *)
  let fault =
    {
      Netsim.Fault_model.passthrough with
      Netsim.Fault_model.schedule =
        [
          Netsim.Fault_model.Outage
            { start = Sim.Time.ms 200; stop = Sim.Time.ms 5200 };
        ];
    }
  in
  let sched, _path, conn = setup ~fault ~bytes:(2_000 * mss) () in
  Sim.Scheduler.run ~until:(Sim.Time.sec 20) sched;
  let sender = conn.Tcp.Connection.sender in
  Alcotest.(check int) "completes despite mid-transfer blackout"
    (2_000 * mss)
    (Tcp.Sender.bytes_acked sender);
  Alcotest.(check bool) "took multiple timeouts" true
    (Tcp.Sender.timeouts sender >= 3)

(* While a lost SYN is retransmitted, the web100 CurRTO gauge reads the
   backed-off timeout: every SYN is dropped, so at 1.5 s the first
   timeout has doubled the initial 1 s RTO. *)
let test_syn_retransmit_refreshes_cur_rto () =
  let sched, path, conn = setup ~bytes:(50 * mss) () in
  Netsim.Link.set_fault_hook path.Netsim.Topology.Duplex.a_to_b
    (fun _now pkt ->
      match pkt.Netsim.Packet.payload with
      | Proto.Payload.Tcp h
        when Proto.Tcp_header.has_flag h Proto.Tcp_header.Syn ->
          []
      | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> [ Sim.Time.zero ]);
  Sim.Scheduler.run ~until:(Sim.Time.ms 1500) sched;
  let ki name = List.assoc name Tcp.Sender.kis conn.Tcp.Connection.sender in
  Alcotest.(check (float 0.)) "Timeouts" 1. (ki "Timeouts");
  Alcotest.(check (float 0.)) "CurRTO in ms" 2000. (ki "CurRTO")

let suite =
  [
    Alcotest.test_case "backoff doubles and clamps across a blackout" `Quick
      test_backoff_doubles_and_clamps;
    Alcotest.test_case "Karn: stale duplicate ACK ignored" `Quick
      test_karn_stale_duplicate_does_not_poison_rtt;
    Alcotest.test_case "sender restarts after blackout" `Quick
      test_sender_restarts_after_early_blackout;
    Alcotest.test_case "CurRTO backs off with a retransmitted SYN" `Quick
      test_syn_retransmit_refreshes_cur_rto;
  ]
