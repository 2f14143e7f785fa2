let mk_pkt ?(size = 1460) id =
  Netsim.Packet.make ~id ~flow:0 ~src:0 ~dst:1 ~created:Sim.Time.zero
    (Proto.Payload.Tcp
       {
         Proto.Tcp_header.src_port = 0;
         dst_port = 0;
         seq = Proto.Seqno.zero;
         ack = Proto.Seqno.zero;
         is_ack = false;
         flags = [];
         wnd = 0;
         payload_len = size;
         sack_blocks = [];
         ts_val = Sim.Time.zero;
         ts_ecr = Sim.Time.zero;
       })

let test_droptail_capacity () =
  let q = Netsim.Queue_disc.droptail ~capacity_packets:3 () in
  let now = Sim.Time.zero in
  for i = 0 to 2 do
    match Netsim.Queue_disc.enqueue q ~now (mk_pkt i) with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "packet %d refused below capacity" i
  done;
  (match Netsim.Queue_disc.enqueue q ~now (mk_pkt 3) with
  | Error Netsim.Queue_disc.Full -> ()
  | Error _ | Ok () -> Alcotest.fail "expected tail drop");
  Alcotest.(check int) "length" 3 (Netsim.Queue_disc.length q)

let test_droptail_fifo () =
  let q = Netsim.Queue_disc.droptail ~capacity_packets:10 () in
  let now = Sim.Time.zero in
  List.iter
    (fun i -> ignore (Netsim.Queue_disc.enqueue q ~now (mk_pkt i)))
    [ 1; 2; 3 ];
  let ids =
    List.filter_map
      (fun _ ->
        Option.map (fun p -> p.Netsim.Packet.id) (Netsim.Queue_disc.dequeue q ~now))
      [ (); (); (); () ]
  in
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ] ids

let test_byte_accounting () =
  let q = Netsim.Queue_disc.droptail ~capacity_packets:10 () in
  let now = Sim.Time.zero in
  ignore (Netsim.Queue_disc.enqueue q ~now (mk_pkt ~size:1460 1));
  ignore (Netsim.Queue_disc.enqueue q ~now (mk_pkt ~size:460 2));
  Alcotest.(check int) "bytes queued" (1500 + 500)
    (Netsim.Queue_disc.byte_length q);
  ignore (Netsim.Queue_disc.dequeue q ~now);
  Alcotest.(check int) "bytes after dequeue" 500
    (Netsim.Queue_disc.byte_length q)

let test_byte_capacity () =
  let q =
    Netsim.Queue_disc.droptail ~capacity_bytes:3000 ~capacity_packets:100 ()
  in
  let now = Sim.Time.zero in
  ignore (Netsim.Queue_disc.enqueue q ~now (mk_pkt 1));
  ignore (Netsim.Queue_disc.enqueue q ~now (mk_pkt 2));
  match Netsim.Queue_disc.enqueue q ~now (mk_pkt 3) with
  | Error Netsim.Queue_disc.Full -> ()
  | Error _ | Ok () -> Alcotest.fail "expected byte-bound drop"

let test_drop_hook () =
  let q = Netsim.Queue_disc.droptail ~capacity_packets:1 () in
  let now = Sim.Time.zero in
  let dropped = ref [] in
  Netsim.Queue_disc.set_drop_hook q (fun pkt reason ->
      dropped := (pkt.Netsim.Packet.id, reason) :: !dropped);
  ignore (Netsim.Queue_disc.enqueue q ~now (mk_pkt 1));
  ignore (Netsim.Queue_disc.enqueue q ~now (mk_pkt 2));
  match !dropped with
  | [ (2, Netsim.Queue_disc.Full) ] -> ()
  | _ -> Alcotest.fail "drop hook did not fire correctly"

let test_invalid_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Queue_disc.droptail: capacity must be positive")
    (fun () -> ignore (Netsim.Queue_disc.droptail ~capacity_packets:0 ()))

let test_red_below_min_th () =
  let q =
    Netsim.Queue_disc.red ~capacity_packets:100
      ~link_rate:(Sim.Units.mbps 100.) Netsim.Queue_disc.default_red
  in
  (* With an empty queue, the average stays below min_th: no early drops. *)
  let accepted = ref 0 in
  for i = 0 to 199 do
    let now = Sim.Time.of_sec (float_of_int i *. 0.01) in
    (match Netsim.Queue_disc.enqueue q ~now (mk_pkt i) with
    | Ok () -> incr accepted
    | Error _ -> ());
    ignore (Netsim.Queue_disc.dequeue q ~now)
  done;
  Alcotest.(check int) "no early drops at low load" 200 !accepted

let test_red_drops_under_sustained_load () =
  let q =
    Netsim.Queue_disc.red ~capacity_packets:50
      ~link_rate:(Sim.Units.mbps 100.) Netsim.Queue_disc.default_red
  in
  (* Fill without draining: the average climbs through min_th and RED
     must start shedding before the hard limit. *)
  let drops = ref 0 in
  for i = 0 to 999 do
    let now = Sim.Time.of_sec (float_of_int i *. 0.001) in
    match Netsim.Queue_disc.enqueue q ~now (mk_pkt i) with
    | Ok () -> ()
    | Error _ -> incr drops
  done;
  Alcotest.(check bool) "RED dropped some" true (!drops > 0);
  Alcotest.(check bool) "queue never exceeded capacity" true
    (Netsim.Queue_disc.length q <= 50)

let test_red_ecn_marks_instead_of_dropping () =
  let q =
    Netsim.Queue_disc.red ~ecn:true ~capacity_packets:50
      ~link_rate:(Sim.Units.mbps 100.) Netsim.Queue_disc.default_red
  in
  (* Hold the instantaneous queue around 10 packets (between min_th 5
     and max_th 15) long enough for the EWMA to settle there: RED's
     early decisions then mark instead of dropping. *)
  let marked_on_dequeue = ref 0 in
  for i = 0 to 9 do
    ignore (Netsim.Queue_disc.enqueue q ~now:Sim.Time.zero (mk_pkt i))
  done;
  let dropped = ref 0 in
  for i = 10 to 5009 do
    let now = Sim.Time.of_sec (float_of_int i *. 1e-4) in
    (match Netsim.Queue_disc.enqueue q ~now (mk_pkt i) with
    | Ok () -> ()
    | Error _ -> incr dropped);
    match Netsim.Queue_disc.dequeue q ~now with
    | Some pkt -> if pkt.Netsim.Packet.ecn_ce then incr marked_on_dequeue
    | None -> ()
  done;
  Alcotest.(check bool) "marks happened" true
    (Netsim.Queue_disc.ecn_marks q > 0);
  Alcotest.(check bool) "CE bits seen on dequeued packets" true
    (!marked_on_dequeue > 0);
  Alcotest.(check int) "early decisions never dropped in ECN mode" 0
    !dropped

let test_droptail_never_marks () =
  let q = Netsim.Queue_disc.droptail ~capacity_packets:2 () in
  ignore (Netsim.Queue_disc.enqueue q ~now:Sim.Time.zero (mk_pkt 0));
  Alcotest.(check int) "no marks" 0 (Netsim.Queue_disc.ecn_marks q)

let suite =
  [
    Alcotest.test_case "RED+ECN marks instead of dropping" `Quick
      test_red_ecn_marks_instead_of_dropping;
    Alcotest.test_case "droptail never marks" `Quick test_droptail_never_marks;
    Alcotest.test_case "droptail capacity" `Quick test_droptail_capacity;
    Alcotest.test_case "droptail FIFO" `Quick test_droptail_fifo;
    Alcotest.test_case "byte accounting" `Quick test_byte_accounting;
    Alcotest.test_case "byte capacity bound" `Quick test_byte_capacity;
    Alcotest.test_case "drop hook" `Quick test_drop_hook;
    Alcotest.test_case "invalid capacity" `Quick test_invalid_capacity;
    Alcotest.test_case "RED: light load passes" `Quick test_red_below_min_th;
    Alcotest.test_case "RED: sheds under sustained load" `Quick
      test_red_drops_under_sustained_load;
  ]
