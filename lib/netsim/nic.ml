type t = {
  sched : Sim.Scheduler.t;
  line_rate : Sim.Units.rate;
  queue : Queue_disc.t;
  mutable link : Link.t option;
  mutable transmitting : bool;
  mutable tx_packet_count : int;
  mutable tx_byte_count : int;
  mutable dequeue_hook : (Packet.t -> unit) option;
  mutable tracer : Trace.t option;
  mutable trace_src : int;
  (* A NIC serializes one packet at a time: [in_tx] holds it
     ([Packet.placeholder] when none) and [tx_done], one closure per
     NIC, completes it. *)
  mutable in_tx : Packet.t;
  mutable tx_done : unit -> unit;
}

let rec start_next t =
  if Option.is_none t.link then invalid_arg "Nic: no link attached";
  match Queue_disc.dequeue t.queue ~now:(Sim.Scheduler.now t.sched) with
  | None ->
      t.transmitting <- false;
      t.in_tx <- Packet.placeholder
  | Some pkt ->
      t.transmitting <- true;
      t.in_tx <- pkt;
      (match t.dequeue_hook with Some hook -> hook pkt | None -> ());
      let tx = Sim.Units.tx_time t.line_rate ~bytes:(Packet.size pkt) in
      ignore (Sim.Scheduler.after t.sched tx t.tx_done)

and complete t =
  let pkt = t.in_tx in
  t.tx_packet_count <- t.tx_packet_count + 1;
  t.tx_byte_count <- t.tx_byte_count + Packet.size pkt;
  (match t.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr
        ~time_ns:(Sim.Time.to_ns_int (Sim.Scheduler.now t.sched))
        ~code:Trace.Code.nic_tx ~src:t.trace_src ~arg1:pkt.Packet.flow
        ~arg2:(Packet.size pkt));
  (match t.link with Some link -> Link.transmit link pkt | None -> ());
  start_next t

let create sched ~rate ~queue =
  if not (rate > 0.) then
    invalid_arg (Printf.sprintf "Nic.create: rate %g must be positive" rate);
  let t =
    {
      sched;
      line_rate = rate;
      queue;
      link = None;
      transmitting = false;
      tx_packet_count = 0;
      tx_byte_count = 0;
      dequeue_hook = None;
      tracer = None;
      trace_src = 0;
      in_tx = Packet.placeholder;
      tx_done = ignore;
    }
  in
  t.tx_done <- (fun () -> complete t);
  t

let attach t link = t.link <- Some link

let set_tracer t ?(src = 0) tracer =
  t.tracer <- tracer;
  t.trace_src <- src

let kick t = if not t.transmitting then start_next t

let tx_packets t = t.tx_packet_count
let tx_bytes t = t.tx_byte_count
let set_dequeue_hook t hook = t.dequeue_hook <- Some hook
