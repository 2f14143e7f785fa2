type t = {
  host : Netsim.Host.t;
  sched : Sim.Scheduler.t;
  flow : int;
  ids : Netsim.Packet.Id_source.source;
  cfg : Config.t;
  buffer : Reorder_buffer.t;
  iss : Proto.Seqno.t; (* our own (ACK-side) initial sequence number *)
  mutable peer : int option;
  mutable irs : Proto.Seqno.t option; (* peer's initial sequence number *)
  mutable rcv_nxt : int;              (* unwrapped cumulative offset *)
  mutable pending_segments : int;     (* in-order segs since last ACK *)
  mutable pending_ts : Sim.Time.t;    (* ts_val to echo for pending ACK *)
  mutable delack_handle : Sim.Scheduler.handle option;
  mutable dup_count : int;
  mutable ack_count : int;
  mutable expectations : (int * (unit -> unit)) list;
  mutable unread : int; (* delivered in-order but not yet app-consumed *)
  mutable drain_armed : bool;
  mutable zero_window_advertised : bool;
  mutable ece_echo : bool; (* CE seen; echo ECE until the sender's CWR *)
  mutable ce_marks : int;
}

let create ~host ~flow ~ids ?(config = Config.default) () =
  let t =
    {
      host;
      sched = Netsim.Host.scheduler host;
      flow;
      ids;
      cfg = config;
      buffer = Reorder_buffer.create ();
      iss = Proto.Seqno.of_int (0x9000 + (flow * 0x1235));
      peer = None;
      irs = None;
      rcv_nxt = 0;
      pending_segments = 0;
      pending_ts = Sim.Time.zero;
      delack_handle = None;
      dup_count = 0;
      ack_count = 0;
      expectations = [];
      unread = 0;
      drain_armed = false;
      zero_window_advertised = false;
      ece_echo = false;
      ce_marks = 0;
    }
  in
  t

let seq_of_offset t off =
  match t.irs with
  | Some irs -> Proto.Seqno.add irs (1 + off)
  | None -> invalid_arg "Receiver: no connection yet"

let offset_of_seq t seqno =
  t.rcv_nxt + Proto.Seqno.diff seqno (seq_of_offset t t.rcv_nxt)

(* Free space in the receive buffer: total size minus the in-order
   backlog the application has not read and the out-of-order store. *)
let advertised_window t =
  match t.cfg.Config.app_read_rate with
  | None -> t.cfg.Config.rcv_wnd
  | Some _ ->
      Int.max 0
        (t.cfg.Config.rcv_wnd - t.unread
        - Reorder_buffer.buffered_bytes t.buffer)

(* Build and emit an ACK for the current cumulative point. *)
let emit_ack t ?(syn = false) ~ts_ecr () =
  match t.peer with
  | None -> ()
  | Some peer ->
      let sack_blocks =
        if t.cfg.Config.use_sack && t.irs <> None then
          Reorder_buffer.sack_blocks t.buffer ~above:t.rcv_nxt ~max_blocks:4
          |> List.map (fun (lo, hi) -> (seq_of_offset t lo, seq_of_offset t hi))
        else []
      in
      let header =
        {
          Proto.Tcp_header.src_port = t.flow;
          dst_port = t.flow;
          seq = t.iss;
          ack =
            (match t.irs with
            | Some _ -> seq_of_offset t t.rcv_nxt
            | None -> Proto.Seqno.zero);
          is_ack = true;
          flags =
            ((if syn then [ Proto.Tcp_header.Syn ] else [])
            @ if t.ece_echo then [ Proto.Tcp_header.Ece ] else []);
          wnd = advertised_window t;
          payload_len = 0;
          sack_blocks;
          ts_val = Sim.Scheduler.now t.sched;
          ts_ecr;
        }
      in
      let pkt =
        Netsim.Packet.make
          ~id:(Netsim.Packet.Id_source.next t.ids)
          ~flow:t.flow ~src:(Netsim.Host.id t.host) ~dst:peer
          ~created:(Sim.Scheduler.now t.sched)
          (Proto.Payload.Tcp header)
      in
      (* ACKs share the host IFQ; a full queue drops them (the reverse
         path is uncongested in all scenarios, so this is theoretical). *)
      (match Netsim.Host.send t.host pkt with `Sent | `Stalled -> ());
      t.ack_count <- t.ack_count + 1;
      t.pending_segments <- 0;
      t.zero_window_advertised <-
        header.Proto.Tcp_header.wnd < t.cfg.Config.mss;
      (match t.delack_handle with
      | Some h ->
          Sim.Scheduler.cancel t.sched h;
          t.delack_handle <- None
      | None -> ())

(* Application reader: consume the in-order backlog at the configured
   rate, ticking while there is anything to read. Reopening a (near-)
   closed window sends an explicit window update, with RFC 1122 SWS
   avoidance: wait until an MSS or a quarter of the buffer is free. *)
let drain_tick = Sim.Time.ms 5

let rec arm_drain t rate =
  t.drain_armed <- true;
  ignore
    (Sim.Scheduler.after t.sched drain_tick (fun () ->
         let quota = int_of_float (Sim.Units.bytes_in rate drain_tick) in
         t.unread <- Int.max 0 (t.unread - quota);
         (if t.zero_window_advertised then
            let free = advertised_window t in
            let threshold =
              Int.min t.cfg.Config.mss (t.cfg.Config.rcv_wnd / 4)
            in
            if free >= threshold then emit_ack t ~ts_ecr:Sim.Time.zero ());
         if t.unread > 0 then arm_drain t rate else t.drain_armed <- false))

let note_delivered t newly =
  match t.cfg.Config.app_read_rate with
  | None -> ()
  | Some rate ->
      t.unread <- t.unread + newly;
      if not t.drain_armed then arm_drain t rate

let fire_expectations t =
  let ready, waiting =
    List.partition (fun (bytes, _) -> t.rcv_nxt >= bytes) t.expectations
  in
  t.expectations <- waiting;
  List.iter (fun (_, cb) -> cb ()) ready

let handle_syn t header pkt =
  t.peer <- Some pkt.Netsim.Packet.src;
  (match t.irs with
  | None -> t.irs <- Some header.Proto.Tcp_header.seq
  | Some _ -> () (* retransmitted SYN *));
  emit_ack t ~syn:true ~ts_ecr:header.Proto.Tcp_header.ts_val ()

let handle_data t header pkt =
  let len = header.Proto.Tcp_header.payload_len in
  (* RFC 3168: a CE mark arms the ECN echo; the peer's CWR disarms it. *)
  if pkt.Netsim.Packet.ecn_ce then begin
    t.ece_echo <- true;
    t.ce_marks <- t.ce_marks + 1
  end;
  if Proto.Tcp_header.has_flag header Proto.Tcp_header.Cwr then
    t.ece_echo <- false;
  if t.irs = None then begin
    (* Data before SYN (shouldn't happen); synthesize connection state. *)
    t.peer <- Some pkt.Netsim.Packet.src;
    t.irs <- Some (Proto.Seqno.add header.Proto.Tcp_header.seq (-1))
  end;
  if t.peer = None then t.peer <- Some pkt.Netsim.Packet.src;
  let lo = offset_of_seq t header.Proto.Tcp_header.seq in
  let hi = lo + len in
  if hi <= t.rcv_nxt then begin
    (* Entirely old: spurious retransmission; re-ACK immediately. *)
    t.dup_count <- t.dup_count + 1;
    emit_ack t ~ts_ecr:header.Proto.Tcp_header.ts_val ()
  end
  else begin
    let in_order = lo <= t.rcv_nxt in
    Reorder_buffer.insert t.buffer ~expected:t.rcv_nxt ~lo ~hi;
    let advanced = Reorder_buffer.deliverable_up_to t.buffer ~from:t.rcv_nxt in
    let newly = advanced - t.rcv_nxt in
    if newly > 0 then begin
      t.rcv_nxt <- advanced;
      Reorder_buffer.consume_below t.buffer advanced;
      note_delivered t newly;
      fire_expectations t
    end;
    if not in_order then
      (* Out of order: immediate duplicate ACK with SACK info. *)
      emit_ack t ~ts_ecr:header.Proto.Tcp_header.ts_val ()
    else if newly > 0 && Reorder_buffer.buffered_bytes t.buffer > 0 then
      (* Filled a hole: ACK now so the sender learns quickly. *)
      emit_ack t ~ts_ecr:header.Proto.Tcp_header.ts_val ()
    else begin
      match t.cfg.Config.delayed_ack with
      | None -> emit_ack t ~ts_ecr:header.Proto.Tcp_header.ts_val ()
      | Some timeout ->
          if t.pending_segments = 0 then
            t.pending_ts <- header.Proto.Tcp_header.ts_val;
          t.pending_segments <- t.pending_segments + 1;
          if t.pending_segments >= 2 then
            (* Echo the oldest pending timestamp (RFC 7323 §4.4). *)
            emit_ack t ~ts_ecr:t.pending_ts ()
          else if Option.is_none t.delack_handle then
            t.delack_handle <-
              Some
                (Sim.Scheduler.after t.sched timeout (fun () ->
                     t.delack_handle <- None;
                     if t.pending_segments > 0 then
                       emit_ack t ~ts_ecr:t.pending_ts ()))
    end
  end

let handle_packet t pkt =
  match pkt.Netsim.Packet.payload with
  | Proto.Payload.Tcp header ->
      if Proto.Tcp_header.has_flag header Proto.Tcp_header.Syn then
        handle_syn t header pkt
      else if header.Proto.Tcp_header.payload_len > 0 then
        handle_data t header pkt
  | Proto.Payload.Udp _ -> ()

let create ~host ~flow ~ids ?config () =
  let t = create ~host ~flow ~ids ?config () in
  Netsim.Host.register_flow host ~flow (fun pkt -> handle_packet t pkt);
  t

let expect t ~bytes cb =
  if t.rcv_nxt >= bytes then cb ()
  else t.expectations <- (bytes, cb) :: t.expectations

let bytes_received t = t.rcv_nxt
let backlog t = t.unread
let ce_marks_seen t = t.ce_marks
let duplicate_segments t = t.dup_count
let out_of_order_segments t = Reorder_buffer.segments_out_of_order t.buffer
let acks_sent t = t.ack_count

let goodput_mbps t ~at =
  let s = Sim.Time.to_sec at in
  if s <= 0. then 0. else float_of_int (8 * t.rcv_nxt) /. s /. 1e6
