(* End-to-end transfers across the simulated path: delivery, recovery,
   stalls, timers. *)

let make_path ?(rate = Sim.Units.mbps 100.) ?(delay = Sim.Time.ms 5)
    ?(ifq = 100) ?(loss = 0.) ?(seed = 1) () =
  let sched = Sim.Scheduler.create ~seed () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate ~one_way_delay:delay
      ~ifq_capacity:ifq ~loss_rate:loss ()
  in
  (sched, path, Netsim.Packet.Id_source.create ())

let transfer ?config ?slow_start ?cong_avoid ?(seed = 1) ?(loss = 0.)
    ?(ifq = 100) ?(delay = Sim.Time.ms 5) ~bytes ~horizon () =
  let sched, path, ids = make_path ~delay ~ifq ~loss ~seed () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ?config ?slow_start
      ?cong_avoid ~bytes ()
  in
  Sim.Scheduler.run ~until:horizon sched;
  (sched, conn)

let test_small_transfer_completes () =
  let _, conn = transfer ~bytes:100_000 ~horizon:(Sim.Time.sec 5) () in
  Alcotest.(check int) "all bytes delivered" 100_000
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver);
  Alcotest.(check int) "sender saw all ACKed" 100_000
    (Tcp.Sender.bytes_acked conn.Tcp.Connection.sender);
  Alcotest.(check int) "no retransmits on clean path" 0
    (Tcp.Sender.retransmits conn.Tcp.Connection.sender)

let test_completion_callback () =
  let sched, path, ids = make_path () in
  let done_at = ref None in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~bytes:50_000 ()
  in
  Tcp.Sender.on_complete conn.Tcp.Connection.sender (fun () ->
      done_at := Some (Sim.Scheduler.now sched));
  Sim.Scheduler.run ~until:(Sim.Time.sec 5) sched;
  Alcotest.(check bool) "completion fired" true (!done_at <> None)

let test_odd_size_transfer () =
  (* Not a multiple of MSS: exercises the final short segment. *)
  let _, conn = transfer ~bytes:10_007 ~horizon:(Sim.Time.sec 2) () in
  Alcotest.(check int) "exact byte count" 10_007
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver)

let test_tiny_transfer () =
  let _, conn = transfer ~bytes:1 ~horizon:(Sim.Time.sec 2) () in
  Alcotest.(check int) "single byte" 1
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver)

let test_loss_recovery_fast_retransmit () =
  (* 1 % random loss: fast retransmit + SACK keep the transfer alive. *)
  let _, conn =
    transfer ~loss:0.01 ~seed:5 ~bytes:2_000_000 ~horizon:(Sim.Time.sec 30) ()
  in
  Alcotest.(check int) "delivered despite loss" 2_000_000
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver);
  Alcotest.(check bool) "some retransmissions" true
    (Tcp.Sender.retransmits conn.Tcp.Connection.sender > 0)

let test_loss_recovery_newreno () =
  let config = { Tcp.Config.default with use_sack = false } in
  let _, conn =
    transfer ~config ~loss:0.01 ~seed:6 ~bytes:1_000_000
      ~horizon:(Sim.Time.sec 30) ()
  in
  Alcotest.(check int) "NewReno delivers too" 1_000_000
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver)

let test_heavy_loss_rto () =
  (* 20 % loss forces timeouts; a small transfer must still finish. *)
  let _, conn =
    transfer ~loss:0.2 ~seed:9 ~bytes:50_000 ~horizon:(Sim.Time.sec 60) ()
  in
  Alcotest.(check int) "survives heavy loss" 50_000
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver)

let test_rtt_measured () =
  let _, conn = transfer ~bytes:200_000 ~horizon:(Sim.Time.sec 5) () in
  match Tcp.Sender.srtt conn.Tcp.Connection.sender with
  | Some srtt ->
      let ms = Sim.Time.to_ms srtt in
      Alcotest.(check bool) "srtt near 10ms path RTT" true
        (ms >= 9. && ms < 50.)
  | None -> Alcotest.fail "no RTT sample"

let test_send_stall_on_tiny_ifq () =
  (* 60 ms RTT + 5-packet IFQ: slow-start overruns it quickly. *)
  let _, conn =
    transfer ~delay:(Sim.Time.ms 30) ~ifq:5 ~bytes:5_000_000
      ~horizon:(Sim.Time.sec 10) ()
  in
  Alcotest.(check bool) "stall observed" true
    (Tcp.Sender.send_stalls conn.Tcp.Connection.sender > 0);
  Alcotest.(check bool) "congestion signal recorded" true
    (Tcp.Sender.congestion_signals conn.Tcp.Connection.sender > 0)

let test_local_congestion_ignore_keeps_slow_start () =
  let config =
    { Tcp.Config.default with local_congestion = Tcp.Local_congestion.Ignore }
  in
  let _, conn =
    transfer ~config ~delay:(Sim.Time.ms 30) ~ifq:5 ~bytes:2_000_000
      ~horizon:(Sim.Time.sec 10) ()
  in
  Alcotest.(check bool) "stalls counted" true
    (Tcp.Sender.send_stalls conn.Tcp.Connection.sender > 0);
  Alcotest.(check int) "but no congestion signal" 0
    (Tcp.Sender.congestion_signals conn.Tcp.Connection.sender);
  Alcotest.(check int) "transfer still completes" 2_000_000
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver)

let test_delayed_ack_reduces_acks () =
  let _, conn_delack =
    transfer ~bytes:1_000_000 ~horizon:(Sim.Time.sec 5) ()
  in
  let config = { Tcp.Config.default with delayed_ack = None } in
  let _, conn_quick =
    transfer ~config ~bytes:1_000_000 ~horizon:(Sim.Time.sec 5) ()
  in
  let acks_delack =
    Tcp.Receiver.acks_sent conn_delack.Tcp.Connection.receiver
  in
  let acks_quick = Tcp.Receiver.acks_sent conn_quick.Tcp.Connection.receiver in
  Alcotest.(check bool) "delack sends fewer ACKs" true
    (float_of_int acks_delack < 0.7 *. float_of_int acks_quick)

let test_cwnd_invariant () =
  let sched, path, ids = make_path ~delay:(Sim.Time.ms 30) ~loss:0.02 () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~bytes:3_000_000 ()
  in
  let violations = ref 0 in
  ignore
    (Sim.Scheduler.every sched (Sim.Time.ms 10) (fun () ->
         let cwnd = Tcp.Sender.cwnd conn.Tcp.Connection.sender in
         if cwnd < 1460. then incr violations));
  Sim.Scheduler.run ~until:(Sim.Time.sec 20) sched;
  Alcotest.(check int) "cwnd never below 1 MSS" 0 !violations

let test_flight_conservation () =
  let sched, path, ids = make_path ~delay:(Sim.Time.ms 30) () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~bytes:5_000_000 ()
  in
  let bad = ref 0 in
  ignore
    (Sim.Scheduler.every sched (Sim.Time.ms 10) (fun () ->
         let flight = Tcp.Sender.flight conn.Tcp.Connection.sender in
         if flight < 0 then incr bad));
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  Alcotest.(check int) "flight never negative" 0 !bad

let test_two_flows_share_host () =
  let sched, path, ids = make_path ~delay:(Sim.Time.ms 10) () in
  let mk flow =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow ~ids ~bytes:500_000 ()
  in
  let c1 = mk 1 and c2 = mk 2 in
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  Alcotest.(check int) "flow 1 complete" 500_000
    (Tcp.Receiver.bytes_received c1.Tcp.Connection.receiver);
  Alcotest.(check int) "flow 2 complete" 500_000
    (Tcp.Receiver.bytes_received c2.Tcp.Connection.receiver)

let test_restricted_no_stall_on_paper_path () =
  let _, conn =
    transfer
      ~slow_start:(Tcp.Slow_start.restricted ())
      ~delay:(Sim.Time.ms 30) ~bytes:50_000_000 ~horizon:(Sim.Time.sec 10) ()
  in
  Alcotest.(check int) "no stalls under RSS" 0
    (Tcp.Sender.send_stalls conn.Tcp.Connection.sender);
  Alcotest.(check string) "still in controlled slow-start" "slow-start"
    (Tcp.Sender.phase_to_string (Tcp.Sender.phase conn.Tcp.Connection.sender))

let test_restricted_beats_standard () =
  let run slow_start =
    let _, conn =
      transfer ~slow_start ~delay:(Sim.Time.ms 30) ~bytes:1_000_000_000
        ~horizon:(Sim.Time.sec 15) ()
    in
    Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver
  in
  let std = run (Tcp.Slow_start.standard ()) in
  let rss = run (Tcp.Slow_start.restricted ()) in
  Alcotest.(check bool) "RSS delivers more on the paper path" true
    (rss > std)

let test_slow_application_limits_rate () =
  (* Receive buffer 128 KiB, application reads at 10 Mbit/s: the sender
     must be throttled to roughly the application rate, with zero loss
     and zero stalls, purely through window advertisements. *)
  let config =
    {
      Tcp.Config.default with
      rcv_wnd = 128 * 1024;
      app_read_rate = Some (Sim.Units.mbps 10.);
    }
  in
  let _, conn =
    transfer ~config ~bytes:20_000_000 ~horizon:(Sim.Time.sec 10) ()
  in
  let received =
    Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver
  in
  let mbps = float_of_int (8 * received) /. 10. /. 1e6 in
  Alcotest.(check bool) "throttled near app rate" true
    (mbps > 6. && mbps < 13.);
  Alcotest.(check int) "no retransmissions" 0
    (Tcp.Sender.retransmits conn.Tcp.Connection.sender);
  Alcotest.(check bool) "backlog bounded by buffer" true
    (Tcp.Receiver.backlog conn.Tcp.Connection.receiver <= 128 * 1024)

let test_zero_window_reopen () =
  (* A tiny buffer with a slow reader repeatedly closes and reopens the
     window; the transfer must still complete. *)
  let config =
    {
      Tcp.Config.default with
      rcv_wnd = 16 * 1024;
      app_read_rate = Some (Sim.Units.mbps 50.);
    }
  in
  let _, conn =
    transfer ~config ~bytes:2_000_000 ~horizon:(Sim.Time.sec 20) ()
  in
  Alcotest.(check int) "completes through window closures" 2_000_000
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver)

let test_rwnd_limited_sender_does_not_stall () =
  (* RSS under a receive-window limit: the controller must freeze (the
     sender is not cwnd-limited), not wind up. *)
  let config =
    {
      Tcp.Config.default with
      rcv_wnd = 256 * 1024;
      app_read_rate = Some (Sim.Units.mbps 20.);
    }
  in
  let _, conn =
    transfer ~config
      ~slow_start:(Tcp.Slow_start.restricted ())
      ~delay:(Sim.Time.ms 30) ~bytes:50_000_000 ~horizon:(Sim.Time.sec 10) ()
  in
  Alcotest.(check int) "no stalls" 0
    (Tcp.Sender.send_stalls conn.Tcp.Connection.sender);
  Alcotest.(check bool) "window stays bounded" true
    (Tcp.Sender.cwnd conn.Tcp.Connection.sender < 2_000_000.)

let test_sequence_wraparound () =
  (* Flow 429444's ISS sits ~94 KB below 2^32, so a 2 MB transfer (with
     1% loss for good measure) crosses the 32-bit sequence wrap early:
     every comparison, SACK block and cumulative ACK must survive it. *)
  let sched, path, ids = make_path ~loss:0.01 ~seed:4 () in
  let flow = 429444 in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow ~ids ~bytes:2_000_000 ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 30) sched;
  Alcotest.(check int) "delivered across the wrap" 2_000_000
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver);
  Alcotest.(check int) "sender agrees" 2_000_000
    (Tcp.Sender.bytes_acked conn.Tcp.Connection.sender)

let test_supply_extends_transfer () =
  let sched, path, ids = make_path () in
  let receiver =
    Tcp.Receiver.create ~host:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ()
  in
  let sender =
    Tcp.Sender.create ~host:path.Netsim.Topology.Duplex.a ~dst:1 ~flow:1
      ~ids ()
  in
  Tcp.Sender.start sender ~bytes:100_000 ();
  Sim.Scheduler.run ~until:(Sim.Time.sec 2) sched;
  Alcotest.(check int) "first chunk delivered" 100_000
    (Tcp.Receiver.bytes_received receiver);
  Tcp.Sender.supply sender 50_000;
  Sim.Scheduler.run ~until:(Sim.Time.sec 4) sched;
  Alcotest.(check int) "supplied bytes delivered" 150_000
    (Tcp.Receiver.bytes_received receiver);
  Alcotest.(check bool) "supply on unlimited rejected" true
    (let s2 =
       Tcp.Sender.create ~host:path.Netsim.Topology.Duplex.a ~dst:1 ~flow:2
         ~ids ()
     in
     Tcp.Sender.start s2 ();
     try
       Tcp.Sender.supply s2 1;
       false
     with Invalid_argument _ -> true)

let test_idle_restart_resets_window () =
  let sched, path, ids = make_path ~delay:(Sim.Time.ms 30) () in
  let _receiver =
    Tcp.Receiver.create ~host:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ()
  in
  let sender =
    Tcp.Sender.create ~host:path.Netsim.Topology.Duplex.a ~dst:1 ~flow:1
      ~ids ()
  in
  Tcp.Sender.start sender ~bytes:5_000_000 ();
  Sim.Scheduler.run ~until:(Sim.Time.sec 5) sched;
  let cwnd_after_bulk = Tcp.Sender.cwnd sender in
  Alcotest.(check bool) "window opened during bulk" true
    (cwnd_after_bulk > 10. *. 1460.);
  (* Long idle, then more data: the window must restart near IW. *)
  Sim.Scheduler.run ~until:(Sim.Time.sec 15) sched;
  Tcp.Sender.supply sender 10_000;
  Alcotest.(check bool) "restarted at initial window" true
    (Tcp.Sender.cwnd sender <= 3. *. 1460.);
  Alcotest.(check string) "back in slow-start" "slow-start"
    (Tcp.Sender.phase_to_string (Tcp.Sender.phase sender))

let test_chunked_staircase () =
  (* Restart disabled: each chunk's burst overruns the IFQ once. *)
  let sched, path, ids = make_path ~delay:(Sim.Time.ms 30) () in
  let config = { Tcp.Config.default with slow_start_restart = false } in
  let source =
    Workload.Chunked.start ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids
      ~chunk_bytes:6_000_000 ~interval:(Sim.Time.sec 3) ~chunks:4 ~config ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 14) sched;
  let sender = Workload.Chunked.sender source in
  Alcotest.(check int) "four chunks issued" 4
    (Workload.Chunked.chunks_issued source);
  Alcotest.(check int) "all chunk bytes delivered" (4 * 6_000_000)
    (Tcp.Receiver.bytes_received (Workload.Chunked.receiver source));
  (* Chunk 1 stalls in slow-start; chunk 2's full-window burst stalls
     again. Later chunks only stall once congestion avoidance regrows
     the window past the IFQ size, so over 4 chunks we see at least 2 —
     already more than a continuous flow's single episode. *)
  Alcotest.(check bool) "repeated burst stalls" true
    (Tcp.Sender.send_stalls sender >= 2)

let test_ecn_end_to_end () =
  (* RED+ECN on the sender's interface queue: the slow-start burst gets
     marked, the receiver echoes ECE, the sender halves once per window
     and sets CWR — no stall, no loss, transfer completes. *)
  let sched = Sim.Scheduler.create ~seed:12 () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate:(Sim.Units.mbps 100.)
      ~one_way_delay:(Sim.Time.ms 30) ~ifq_capacity:100
      ~ifq_red_ecn:
        {
          Netsim.Queue_disc.min_th = 30.;
          max_th = 90.;
          max_p = 0.1;
          weight = 0.02;
        }
      ()
  in
  let ids = Netsim.Packet.Id_source.create () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~bytes:30_000_000 ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 20) sched;
  let sender = conn.Tcp.Connection.sender in
  let receiver = conn.Tcp.Connection.receiver in
  Alcotest.(check int) "transfer complete" 30_000_000
    (Tcp.Receiver.bytes_received receiver);
  Alcotest.(check bool) "CE marks observed" true
    (Tcp.Receiver.ce_marks_seen receiver > 0);
  Alcotest.(check int) "no send-stalls with marking qdisc" 0
    (Tcp.Sender.send_stalls sender);
  Alcotest.(check int) "no retransmissions" 0 (Tcp.Sender.retransmits sender);
  Alcotest.(check bool) "ECE triggered congestion response" true
    (Tcp.Sender.congestion_signals sender >= 1);
  (* Once per window, not once per mark. *)
  Alcotest.(check bool) "response rate-limited" true
    (Tcp.Sender.congestion_signals sender
    <= Tcp.Receiver.ce_marks_seen receiver)

let test_pacing_completes_and_smooths () =
  let config = { Tcp.Config.default with pacing = true } in
  let _, conn =
    transfer ~config ~bytes:2_000_000 ~horizon:(Sim.Time.sec 10) ()
  in
  Alcotest.(check int) "paced transfer completes" 2_000_000
    (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver);
  (* Pacing keeps the sender's own queue nearly empty on a short path. *)
  let _, conn2 =
    transfer ~config ~delay:(Sim.Time.ms 30) ~bytes:20_000_000
      ~horizon:(Sim.Time.sec 5) ()
  in
  Alcotest.(check bool) "progress under pacing" true
    (Tcp.Receiver.bytes_received conn2.Tcp.Connection.receiver > 1_000_000)

let test_determinism () =
  let run () =
    let _, conn =
      transfer ~loss:0.01 ~seed:42 ~bytes:1_000_000
        ~horizon:(Sim.Time.sec 20) ()
    in
    ( Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver,
      Tcp.Sender.retransmits conn.Tcp.Connection.sender,
      Tcp.Sender.timeouts conn.Tcp.Connection.sender )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_web100_counters_consistent () =
  let _, conn =
    transfer ~loss:0.02 ~seed:3 ~bytes:1_000_000 ~horizon:(Sim.Time.sec 30) ()
  in
  let sender = conn.Tcp.Connection.sender in
  let v name = List.assoc name Tcp.Sender.kis sender in
  Alcotest.(check bool) "PktsOut > 0" true (v "PktsOut" > 0.);
  Alcotest.(check bool) "DataBytesOut >= transfer" true
    (v "DataBytesOut" >= 1_000_000.);
  Alcotest.(check (float 0.)) "PktsRetrans consistent"
    (float_of_int (Tcp.Sender.retransmits sender))
    (v "PktsRetrans");
  Alcotest.(check bool) "AcksIn > 0" true (v "AcksIn" > 0.)

let qcheck_transfer_any_loss =
  QCheck.Test.make ~name:"transfers complete under any moderate loss"
    ~count:15
    QCheck.(pair (int_range 1 1000) (int_range 0 8))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100. in
      let _, conn =
        transfer ~loss ~seed ~bytes:200_000 ~horizon:(Sim.Time.sec 60) ()
      in
      Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver = 200_000)

(* The full matrix: every slow-start policy, with/without SACK and
   pacing, random loss and a random (possibly tiny) IFQ — data must
   always arrive completely and exactly. *)
let qcheck_policy_matrix =
  let policies =
    [ "standard"; "abc"; "limited"; "hystart"; "restricted";
      "restricted-adaptive" ]
  in
  QCheck.Test.make ~name:"delivery invariant across policy matrix" ~count:25
    QCheck.(
      quad (int_range 1 500) (int_bound 5)
        (int_range 0 (List.length policies - 1))
        (pair bool (int_range 5 120)))
    (fun (seed, loss_pct, policy_idx, (use_sack, ifq)) ->
      let slow_start =
        match Tcp.Policy.by_name (List.nth policies policy_idx) with
        | Ok p -> p.Tcp.Policy.slow_start
        | Error e -> failwith e
      in
      let config =
        { Tcp.Config.default with use_sack; pacing = seed mod 2 = 0 }
      in
      let _, conn =
        transfer ~config ~slow_start ~seed
          ~loss:(float_of_int loss_pct /. 100.)
          ~ifq ~bytes:150_000 ~horizon:(Sim.Time.sec 60) ()
      in
      Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver = 150_000)

let suite =
  [
    Alcotest.test_case "small transfer completes" `Quick
      test_small_transfer_completes;
    Alcotest.test_case "completion callback" `Quick test_completion_callback;
    Alcotest.test_case "odd-size transfer" `Quick test_odd_size_transfer;
    Alcotest.test_case "tiny transfer" `Quick test_tiny_transfer;
    Alcotest.test_case "fast-retransmit recovery (SACK)" `Quick
      test_loss_recovery_fast_retransmit;
    Alcotest.test_case "NewReno recovery" `Quick test_loss_recovery_newreno;
    Alcotest.test_case "heavy loss + RTO" `Slow test_heavy_loss_rto;
    Alcotest.test_case "RTT measured" `Quick test_rtt_measured;
    Alcotest.test_case "send-stall on tiny IFQ" `Quick
      test_send_stall_on_tiny_ifq;
    Alcotest.test_case "Ignore policy keeps slow-start" `Quick
      test_local_congestion_ignore_keeps_slow_start;
    Alcotest.test_case "delayed ACKs reduce ACK count" `Quick
      test_delayed_ack_reduces_acks;
    Alcotest.test_case "cwnd floor invariant" `Quick test_cwnd_invariant;
    Alcotest.test_case "flight conservation" `Quick test_flight_conservation;
    Alcotest.test_case "two flows share a host" `Quick test_two_flows_share_host;
    Alcotest.test_case "RSS: zero stalls on paper path" `Quick
      test_restricted_no_stall_on_paper_path;
    Alcotest.test_case "RSS outperforms standard" `Quick
      test_restricted_beats_standard;
    Alcotest.test_case "slow application limits rate" `Quick
      test_slow_application_limits_rate;
    Alcotest.test_case "zero-window reopen" `Quick test_zero_window_reopen;
    Alcotest.test_case "rwnd-limited RSS freezes" `Quick
      test_rwnd_limited_sender_does_not_stall;
    Alcotest.test_case "32-bit sequence wraparound" `Quick
      test_sequence_wraparound;
    Alcotest.test_case "supply extends transfer" `Quick
      test_supply_extends_transfer;
    Alcotest.test_case "idle restart resets window" `Quick
      test_idle_restart_resets_window;
    Alcotest.test_case "chunked staircase" `Quick test_chunked_staircase;
    Alcotest.test_case "ECN end-to-end" `Quick test_ecn_end_to_end;
    Alcotest.test_case "pacing" `Quick test_pacing_completes_and_smooths;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "web100 counters consistent" `Quick
      test_web100_counters_consistent;
    QCheck_alcotest.to_alcotest qcheck_transfer_any_loss;
    QCheck_alcotest.to_alcotest qcheck_policy_matrix;
  ]
