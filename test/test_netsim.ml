(* Link, NIC, IFQ, Host, Router and topology wiring. *)

let udp_pkt ?(size = 1000) ~id ~src ~dst () =
  Netsim.Packet.make ~id ~flow:9 ~src ~dst ~created:Sim.Time.zero
    (Proto.Payload.Udp { seq = id; payload_len = size })

let test_link_delay () =
  let s = Sim.Scheduler.create () in
  let link = Netsim.Link.create s ~delay:(Sim.Time.ms 10) () in
  let arrived = ref None in
  Netsim.Link.connect link (fun _ -> arrived := Some (Sim.Scheduler.now s));
  Netsim.Link.transmit link (udp_pkt ~id:0 ~src:0 ~dst:1 ());
  Sim.Scheduler.run s;
  (match !arrived with
  | Some t -> Alcotest.(check (float 1e-9)) "propagation" 10. (Sim.Time.to_ms t)
  | None -> Alcotest.fail "packet never arrived");
  Alcotest.(check int) "delivered" 1 (Netsim.Link.delivered link);
  Alcotest.(check int) "in flight drained" 0 (Netsim.Link.in_flight link)

let test_link_loss () =
  let s = Sim.Scheduler.create () in
  let link =
    Netsim.Link.create s ~delay:(Sim.Time.ms 1) ~loss_rate:0.5
      ~rng:(Sim.Rng.of_seed 4) ()
  in
  let count = ref 0 in
  Netsim.Link.connect link (fun _ -> incr count);
  for i = 0 to 999 do
    Netsim.Link.transmit link (udp_pkt ~id:i ~src:0 ~dst:1 ())
  done;
  Sim.Scheduler.run s;
  Alcotest.(check int) "conservation" 1000 (!count + Netsim.Link.lost link);
  Alcotest.(check bool) "roughly half lost" true
    (Netsim.Link.lost link > 400 && Netsim.Link.lost link < 600)

let test_link_unconnected () =
  let s = Sim.Scheduler.create () in
  let link = Netsim.Link.create s ~delay:(Sim.Time.ms 1) () in
  Alcotest.check_raises "transmit unconnected"
    (Invalid_argument "Link.transmit: link not connected") (fun () ->
      Netsim.Link.transmit link (udp_pkt ~id:0 ~src:0 ~dst:1 ()))

let test_nic_serialization () =
  let s = Sim.Scheduler.create () in
  let q = Netsim.Queue_disc.droptail ~capacity_packets:10 () in
  (* 1 Mbit/s: a 1028-byte datagram takes 8.224 ms on the wire. *)
  let nic = Netsim.Nic.create s ~rate:(Sim.Units.mbps 1.) ~queue:q in
  let link = Netsim.Link.create s ~delay:Sim.Time.zero () in
  let arrivals = ref [] in
  Netsim.Link.connect link (fun _ -> arrivals := Sim.Scheduler.now s :: !arrivals);
  Netsim.Nic.attach nic link;
  ignore (Netsim.Queue_disc.enqueue q ~now:Sim.Time.zero (udp_pkt ~id:0 ~src:0 ~dst:1 ()));
  ignore (Netsim.Queue_disc.enqueue q ~now:Sim.Time.zero (udp_pkt ~id:1 ~src:0 ~dst:1 ()));
  Netsim.Nic.kick nic;
  Sim.Scheduler.run s;
  (match List.rev !arrivals with
  | [ t1; t2 ] ->
      Alcotest.(check (float 1e-6)) "first serialization" 8.224
        (Sim.Time.to_ms t1);
      Alcotest.(check (float 1e-6)) "back-to-back" 16.448 (Sim.Time.to_ms t2)
  | _ -> Alcotest.fail "expected two arrivals");
  Alcotest.(check int) "tx packets" 2 (Netsim.Nic.tx_packets nic);
  Alcotest.(check int) "tx bytes" 2056 (Netsim.Nic.tx_bytes nic)

let test_ifq_stall_and_space () =
  let s = Sim.Scheduler.create () in
  let ifq = Netsim.Ifq.create s ~capacity:2 () in
  let space_hits = ref 0 in
  Netsim.Ifq.on_space ifq (fun () -> incr space_hits);
  Alcotest.(check bool) "enq 1" true
    (Netsim.Ifq.try_enqueue ifq (udp_pkt ~id:0 ~src:0 ~dst:1 ()));
  Alcotest.(check bool) "enq 2" true
    (Netsim.Ifq.try_enqueue ifq (udp_pkt ~id:1 ~src:0 ~dst:1 ()));
  Alcotest.(check bool) "enq 3 stalls" false
    (Netsim.Ifq.try_enqueue ifq (udp_pkt ~id:2 ~src:0 ~dst:1 ()));
  Alcotest.(check int) "stall counter" 1 (Netsim.Ifq.stalls ifq);
  Alcotest.(check int) "occupancy" 2 (Netsim.Ifq.occupancy ifq);
  (* Simulate the NIC pulling one packet. *)
  ignore (Netsim.Queue_disc.dequeue (Netsim.Ifq.queue ifq) ~now:Sim.Time.zero);
  Netsim.Ifq.note_dequeue ifq;
  Alcotest.(check int) "space hook after full->notfull" 1 !space_hits;
  ignore (Netsim.Queue_disc.dequeue (Netsim.Ifq.queue ifq) ~now:Sim.Time.zero);
  Netsim.Ifq.note_dequeue ifq;
  Alcotest.(check int) "no second space hook" 1 !space_hits

let test_host_demux () =
  let s = Sim.Scheduler.create () in
  let host =
    Netsim.Host.create s ~id:5 ~nic_rate:(Sim.Units.mbps 100.) ~ifq_capacity:10 ()
  in
  let got_flow = ref [] in
  Netsim.Host.register_flow host ~flow:9 (fun pkt ->
      got_flow := pkt.Netsim.Packet.id :: !got_flow);
  Netsim.Host.deliver host (udp_pkt ~id:1 ~src:0 ~dst:5 ());
  let other =
    Netsim.Packet.make ~id:2 ~flow:777 ~src:0 ~dst:5 ~created:Sim.Time.zero
      (Proto.Payload.Udp { seq = 0; payload_len = 10 })
  in
  Netsim.Host.deliver host other;
  Alcotest.(check (list int)) "flow handler" [ 1 ] !got_flow;
  Alcotest.(check int) "rx packets" 2 (Netsim.Host.rx_packets host);
  Netsim.Host.unregister_flow host ~flow:9;
  Netsim.Host.deliver host (udp_pkt ~id:3 ~src:0 ~dst:5 ());
  Alcotest.(check (list int)) "after unregister -> dropped" [ 1 ] !got_flow

let test_duplex_end_to_end () =
  let s = Sim.Scheduler.create () in
  let d =
    Netsim.Topology.Duplex.create s ~rate:(Sim.Units.mbps 100.)
      ~one_way_delay:(Sim.Time.ms 5) ~ifq_capacity:10 ()
  in
  let arrived = ref None in
  Netsim.Host.register_flow d.Netsim.Topology.Duplex.b ~flow:9 (fun _ ->
      arrived := Some (Sim.Scheduler.now s));
  (match Netsim.Host.send d.Netsim.Topology.Duplex.a (udp_pkt ~id:0 ~src:0 ~dst:1 ()) with
  | `Sent -> ()
  | `Stalled -> Alcotest.fail "unexpected stall");
  Sim.Scheduler.run s;
  match !arrived with
  | Some t ->
      (* 5 ms propagation + 82.24 µs serialization at 100 Mbit/s. *)
      Alcotest.(check (float 1e-3)) "arrival time" 5.082 (Sim.Time.to_ms t)
  | None -> Alcotest.fail "no delivery"

let test_router_routing_and_drops () =
  let s = Sim.Scheduler.create () in
  let r = Netsim.Router.create s in
  let q = Netsim.Queue_disc.droptail ~capacity_packets:2 () in
  let link = Netsim.Link.create s ~delay:Sim.Time.zero () in
  let received = ref 0 in
  Netsim.Link.connect link (fun _ -> incr received);
  let port = Netsim.Router.add_port r ~queue:q ~rate:(Sim.Units.mbps 1.) ~link in
  Netsim.Router.route r ~dst:7 port;
  (* Three quick deliveries: capacity 2 -> the third drops (the NIC has
     no time to drain at 1 Mbit/s within the same instant)... the first
     is immediately pulled by the NIC, so 1 in service + 2 queued. *)
  for i = 0 to 3 do
    Netsim.Router.deliver r (udp_pkt ~id:i ~src:0 ~dst:7 ())
  done;
  Netsim.Router.deliver r (udp_pkt ~id:99 ~src:0 ~dst:12345 ());
  Sim.Scheduler.run s;
  Alcotest.(check int) "no-route counted" 1 (Netsim.Router.no_route r);
  Alcotest.(check int) "forwarded + dropped = offered" 4
    (Netsim.Router.forwarded r + Netsim.Router.dropped r);
  Alcotest.(check bool) "something dropped" true (Netsim.Router.dropped r >= 1);
  Alcotest.(check int) "delivered matches forwarded" (Netsim.Router.forwarded r)
    !received

let test_dumbbell_cross_traffic () =
  let s = Sim.Scheduler.create () in
  let net =
    Netsim.Topology.Multi_dumbbell.create ~sched_of:(fun _ -> s) ~segments:1
      ~pairs:2
      ~access_rate:(Sim.Units.mbps 100.)
      ~access_delay:(Sim.Time.ms 1)
      ~bottleneck_rate:(Sim.Units.mbps 10.)
      ~bottleneck_delay:(Sim.Time.ms 5) ~core_rate:(Sim.Units.mbps 10.)
      ~core_delay:Sim.Time.zero ~buffer_packets:20 ~ifq_capacity:50 ()
  in
  let seg = net.Netsim.Topology.Multi_dumbbell.segments.(0) in
  let got = Array.make 2 0 in
  Array.iteri
    (fun i host ->
      Netsim.Host.register_flow host ~flow:9 (fun _ -> got.(i) <- got.(i) + 1))
    seg.Netsim.Topology.Multi_dumbbell.right;
  (* Each left host sends one datagram to its partner. *)
  Array.iteri
    (fun i host ->
      let dst =
        Netsim.Host.id seg.Netsim.Topology.Multi_dumbbell.right.(i)
      in
      ignore (Netsim.Host.send host (udp_pkt ~id:i ~src:(Netsim.Host.id host) ~dst ())))
    seg.Netsim.Topology.Multi_dumbbell.left;
  Sim.Scheduler.run s;
  Alcotest.(check (list int)) "pairwise delivery" [ 1; 1 ]
    (Array.to_list got)

(* A tap and the link's trace ring both see every transmitted packet;
   the ring also records each delivery, stamped with the link's source
   id. *)
let test_link_tap_and_tracer () =
  let s = Sim.Scheduler.create () in
  let link = Netsim.Link.create s ~delay:(Sim.Time.ms 1) () in
  Netsim.Link.connect link (fun _ -> ());
  let tr = Trace.create ~capacity:64 () in
  Netsim.Link.set_tracer link ~src:7 (Some tr);
  let seen = ref 0 in
  Netsim.Link.add_tap link (fun _ _ -> incr seen);
  for i = 0 to 9 do
    Netsim.Link.transmit link (udp_pkt ~id:i ~src:0 ~dst:1 ())
  done;
  Sim.Scheduler.run s;
  Alcotest.(check int) "tap saw everything" 10 !seen;
  let count code =
    let n = ref 0 in
    Trace.iter tr (fun ~time_ns:_ ~code:c ~src ~arg1:_ ~arg2:_ ->
        if c = code && src = 7 then incr n);
    !n
  in
  Alcotest.(check int) "ring saw every transmit" 10
    (count Trace.Code.link_tx);
  Alcotest.(check int) "ring saw every delivery" (Netsim.Link.delivered link)
    (count Trace.Code.link_deliver);
  Alcotest.(check int) "nothing else" 20 (Trace.total tr)

let test_drop_filter () =
  let s = Sim.Scheduler.create () in
  let link = Netsim.Link.create s ~delay:(Sim.Time.ms 1) () in
  let got = ref [] in
  Netsim.Link.connect link (fun pkt -> got := pkt.Netsim.Packet.id :: !got);
  Netsim.Link.set_drop_filter link (fun pkt -> pkt.Netsim.Packet.id mod 2 = 0);
  for i = 0 to 9 do
    Netsim.Link.transmit link (udp_pkt ~id:i ~src:0 ~dst:1 ())
  done;
  Sim.Scheduler.run s;
  Alcotest.(check (list int)) "odd ids survive" [ 1; 3; 5; 7; 9 ]
    (List.sort compare !got);
  Alcotest.(check int) "drops counted" 5 (Netsim.Link.lost link)

let test_link_loss_rate_validation () =
  let s = Sim.Scheduler.create () in
  let invalid rate =
    try
      ignore (Netsim.Link.create s ~delay:(Sim.Time.ms 1) ~loss_rate:rate ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "loss_rate > 1 rejected" true (invalid 1.2);
  Alcotest.(check bool) "negative loss_rate rejected" true (invalid (-0.1));
  Alcotest.(check bool) "NaN rejected" true (invalid Float.nan);
  (* The boundaries are legal: 0 is lossless, 1 is a full blackout. *)
  let blackout =
    Netsim.Link.create s ~delay:(Sim.Time.ms 1) ~loss_rate:1. ()
  in
  Netsim.Link.connect blackout (fun _ -> Alcotest.fail "delivered at p=1");
  for i = 0 to 9 do
    Netsim.Link.transmit blackout (udp_pkt ~id:i ~src:0 ~dst:1 ())
  done;
  Sim.Scheduler.run s;
  Alcotest.(check int) "everything lost" 10 (Netsim.Link.lost blackout)

(* A negative delay would give a copy a due time before its birth, so
   the link refuses it by value; zero is legal. *)
let test_link_delay_validation () =
  let s = Sim.Scheduler.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Link.create: delay -30ms must be non-negative")
    (fun () -> ignore (Netsim.Link.create s ~delay:(Sim.Time.ms (-30)) ()));
  ignore (Netsim.Link.create s ~delay:Sim.Time.zero ())

(* A fault hook that returns [0], [d > 0], [0; d] or [] by packet id,
   with two packets transmitted per instant. The link must deliver
   every copy at transmit time + delay + extra, in the order of one
   event per copy: by due time, then by transmit time, then by the
   order the copies and other events were made. Delays of 1 and 2 ms
   tie delayed copies with later undelayed ones, and each transmit is
   followed by a marker event due with its undelayed copy, which must
   fire after it. The counters must balance after every transmit and
   every delivery. *)
let test_link_copy_order () =
  let s = Sim.Scheduler.create () in
  let delay = Sim.Time.ms 10 in
  let link = Netsim.Link.create s ~delay () in
  let extras id =
    match id mod 5 with
    | 0 -> [ Sim.Time.zero ]
    | 1 -> [ Sim.Time.ms (1 + (id mod 2)) ]
    | 2 -> [ Sim.Time.zero; Sim.Time.ms 1 ]
    | 3 -> []
    | _ -> [ Sim.Time.ms 2; Sim.Time.zero ]
  in
  Netsim.Link.set_fault_hook link (fun _ pkt -> extras pkt.Netsim.Packet.id);
  let transmits = ref 0 in
  let balanced () =
    Netsim.Link.delivered link + Netsim.Link.lost link
    + Netsim.Link.in_flight link - Netsim.Link.duplicated link
    = !transmits
  in
  let ok = ref true in
  let got = ref [] in
  Netsim.Link.connect link (fun pkt ->
      got := (pkt.Netsim.Packet.id, Sim.Scheduler.now s) :: !got;
      if not (balanced ()) then ok := false);
  let n = 60 in
  let expected = ref [] and made = ref 0 in
  for id = 0 to n - 1 do
    let at = Sim.Time.ms (id / 2) in
    List.iter
      (fun extra ->
        expected :=
          (Sim.Time.add (Sim.Time.add at delay) extra, at, !made, id)
          :: !expected;
        incr made)
      (extras id);
    let marker = -1 - id in
    expected := (Sim.Time.add at delay, at, !made, marker) :: !expected;
    incr made;
    ignore
      (Sim.Scheduler.at s at (fun () ->
           Netsim.Link.transmit link (udp_pkt ~id ~src:0 ~dst:1 ());
           incr transmits;
           if not (balanced ()) then ok := false;
           ignore
             (Sim.Scheduler.after s delay (fun () ->
                  got := (marker, Sim.Scheduler.now s) :: !got))))
  done;
  Sim.Scheduler.run s;
  let expected =
    List.map
      (fun (due, _, _, id) -> (id, due))
      (List.sort compare !expected)
  in
  Alcotest.(check (list (pair int int)))
    "deliveries by (due, transmit, copy)"
    (List.map (fun (id, t) -> (id, Sim.Time.to_ns_int t)) expected)
    (List.rev_map (fun (id, t) -> (id, Sim.Time.to_ns_int t)) !got);
  Alcotest.(check bool) "balanced throughout" true !ok;
  Alcotest.(check int) "in flight drained" 0 (Netsim.Link.in_flight link);
  Alcotest.(check int) "duplicates" 24 (Netsim.Link.duplicated link);
  Alcotest.(check int) "lost" 12 (Netsim.Link.lost link)

let test_nic_rate_validation () =
  let s = Sim.Scheduler.create () in
  let invalid rate =
    try
      let q = Netsim.Queue_disc.droptail ~capacity_packets:4 () in
      ignore (Netsim.Nic.create s ~rate ~queue:q);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero rate rejected" true (invalid 0.);
  Alcotest.(check bool) "negative rate rejected" true
    (invalid (Sim.Units.mbps (-10.)))

(* Two lossy links on one scheduler, neither given an explicit RNG: each
   must get its own derived stream (not a shared fixed seed), and the
   whole arrangement must reproduce exactly from the scheduler seed. *)
let loss_pattern_pair ~seed =
  let s = Sim.Scheduler.create ~seed () in
  let mk () =
    let link =
      Netsim.Link.create s ~delay:(Sim.Time.ms 1) ~loss_rate:0.5 ()
    in
    Netsim.Link.connect link (fun _ -> ());
    link
  in
  let l1 = mk () and l2 = mk () in
  let pattern link =
    List.init 64 (fun i ->
        let before = Netsim.Link.lost link in
        Netsim.Link.transmit link (udp_pkt ~id:i ~src:0 ~dst:1 ());
        Netsim.Link.lost link > before)
  in
  let p1 = pattern l1 and p2 = pattern l2 in
  Sim.Scheduler.run s;
  (p1, p2)

let test_per_link_derived_seeds () =
  let p1, p2 = loss_pattern_pair ~seed:9 in
  Alcotest.(check bool) "sibling links draw from different streams" false
    (p1 = p2);
  let q1, q2 = loss_pattern_pair ~seed:9 in
  Alcotest.(check bool) "reproducible from the scheduler seed" true
    (p1 = q1 && p2 = q2);
  let r1, _ = loss_pattern_pair ~seed:10 in
  Alcotest.(check bool) "different scheduler seed, different pattern" false
    (p1 = r1)

let suite =
  [
    Alcotest.test_case "link tap + tracer" `Quick test_link_tap_and_tracer;
    Alcotest.test_case "drop filter" `Quick test_drop_filter;
    Alcotest.test_case "link delay" `Quick test_link_delay;
    Alcotest.test_case "link loss" `Quick test_link_loss;
    Alcotest.test_case "link loss-rate validation" `Quick
      test_link_loss_rate_validation;
    Alcotest.test_case "link delay validation" `Quick
      test_link_delay_validation;
    Alcotest.test_case "link copy order under a fault hook" `Quick
      test_link_copy_order;
    Alcotest.test_case "nic rate validation" `Quick test_nic_rate_validation;
    Alcotest.test_case "per-link derived seeds" `Quick
      test_per_link_derived_seeds;
    Alcotest.test_case "link unconnected" `Quick test_link_unconnected;
    Alcotest.test_case "nic serialization" `Quick test_nic_serialization;
    Alcotest.test_case "ifq stall/space hooks" `Quick test_ifq_stall_and_space;
    Alcotest.test_case "host demux" `Quick test_host_demux;
    Alcotest.test_case "duplex end-to-end" `Quick test_duplex_end_to_end;
    Alcotest.test_case "router routing and drops" `Quick
      test_router_routing_and_drops;
    Alcotest.test_case "dumbbell pairwise" `Quick test_dumbbell_cross_traffic;
  ]
