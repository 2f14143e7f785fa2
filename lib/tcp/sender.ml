type phase = Syn_sent | Slow_start_p | Cong_avoid_p | Fast_recovery

let phase_to_string = function
  | Syn_sent -> "syn-sent"
  | Slow_start_p -> "slow-start"
  | Cong_avoid_p -> "cong-avoid"
  | Fast_recovery -> "fast-recovery"

(* The web100 gauges, refreshed by [update_gauges]. An all-float
   record is stored flat, so writing a gauge never boxes. *)
type gauges = {
  mutable cur_cwnd : float;  (* bytes *)
  mutable cur_ssthresh : float;  (* bytes *)
  mutable smoothed_rtt : float;  (* ms *)
  mutable cur_rto : float;  (* ms *)
  mutable min_rtt : float;  (* ms *)
  mutable max_rwin_rcvd : float;  (* bytes *)
  mutable cur_ifq : float;  (* packets *)
}

(* The windows, in bytes, in their own all-float record for the same
   reason: writing cwnd on every ACK stores a double in place. *)
type windows = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable last_traced_cwnd : float; (* dedupe tcp.cwnd records *)
}

(* The per-ACK state (offsets, counters, phase, latches and pacing
   times) is immediate: ints, bools, [Sim.Time.t] and [phase], so no
   write to it allocates. Byte offsets are unwrapped: data byte 0 maps
   to seqno iss+1. *)
type t = {
  host : Netsim.Host.t;
  sched : Sim.Scheduler.t;
  dst : int;
  flow : int;
  ids : Netsim.Packet.Id_source.source;
  cfg : Config.t;
  ss : Slow_start.t;
  cc : Cong_avoid.t;
  rtt : Rtt_estimator.t;
  scoreboard : Sack_scoreboard.t;
  retx_done : Interval_set.t;
  iss : Proto.Seqno.t;
  win : windows;
  mutable phase : phase;
  mutable una : int;
  mutable nxt : int;
  mutable rwnd : int;
  mutable dupacks : int;
  mutable recover : int;
  mutable reaction_mark : int; (* no window reduction below this una *)
  mutable bytes_sent : int;
  mutable next_pace_time : Sim.Time.t;
  mutable last_data_send : Sim.Time.t;
  mutable stalled : bool;
  mutable completed : bool;
  mutable started : bool;
  mutable cwr_pending : bool;
  mutable total : int option;
  mutable rto_handle : Sim.Scheduler.handle option;
  mutable rto_cb : unit -> unit; (* one closure per sender, not per arm *)
  mutable pace_cb : unit -> unit;
  mutable pending_retx : (int * int) option;
  mutable complete_cbs : (unit -> unit) list;
  mutable pace_timer : Sim.Scheduler.handle option;
  mutable tracer : Trace.t option;
  mutable pkts_out : int;
  mutable data_bytes_out : int;
  mutable pkts_retrans : int;
  mutable bytes_retrans : int;
  mutable congestion_signals : int;
  mutable send_stall : int;
  mutable timeouts : int;
  mutable dup_acks_in : int;
  mutable fast_retran : int;
  mutable acks_in : int;
  mutable slow_start_acks : int;  (* SlowStart: ACKs taken in slow start *)
  mutable cong_avoid_acks : int;  (* CongAvoid: ACKs taken in avoidance *)
  gauges : gauges;
  ss_view : Slow_start.view; (* built once; its thunks read this sender *)
}

let mssf t = float_of_int t.cfg.Config.mss

let seq_of_offset t off = Proto.Seqno.add t.iss (1 + off)

(* Unwrap a 32-bit ack back to an absolute offset, anchored at una:
   valid because in-flight distances stay far below 2^31. *)
let offset_of_seq t seqno =
  t.una + Proto.Seqno.diff seqno (seq_of_offset t t.una)

let flight_bytes t =
  let raw = t.nxt - t.una in
  if t.cfg.Config.use_sack then raw - Sack_scoreboard.sacked_bytes t.scoreboard
  else raw

(* --- trace plumbing --------------------------------------------------- *)

let set_tracer t tracer = t.tracer <- tracer

(* The flow id doubles as the trace source, so per-connection records
   demux the same way packets do. *)
let trace t ~code ~arg1 ~arg2 =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr
        ~time_ns:(Sim.Time.to_ns_int (Sim.Scheduler.now t.sched))
        ~code ~src:t.flow ~arg1 ~arg2

let trace_cwnd t =
  match t.tracer with
  | None -> ()
  | Some _ ->
      if t.win.cwnd <> t.win.last_traced_cwnd then begin
        t.win.last_traced_cwnd <- t.win.cwnd;
        let ssthresh =
          if t.win.ssthresh >= float_of_int max_int then max_int
          else int_of_float t.win.ssthresh
        in
        trace t ~code:Trace.Code.tcp_cwnd ~arg1:(int_of_float t.win.cwnd)
          ~arg2:ssthresh
      end

let update_gauges t =
  let g = t.gauges in
  g.cur_cwnd <- t.win.cwnd;
  g.cur_ssthresh <-
    (if t.win.ssthresh = infinity then Float.max_float else t.win.ssthresh);
  (match Rtt_estimator.srtt t.rtt with
  | Some s -> g.smoothed_rtt <- Sim.Time.to_ms s
  | None -> ());
  (match Rtt_estimator.min_rtt t.rtt with
  | Some s -> g.min_rtt <- Sim.Time.to_ms s
  | None -> ());
  g.cur_rto <- Sim.Time.to_ms (Rtt_estimator.rto t.rtt);
  g.cur_ifq <- float_of_int (Netsim.Ifq.occupancy (Netsim.Host.ifq t.host));
  trace_cwnd t

(* --- segment construction -------------------------------------------- *)

let make_header t ~offset ~len ~flags =
  {
    Proto.Tcp_header.src_port = t.flow;
    dst_port = t.flow;
    seq = seq_of_offset t offset;
    ack = Proto.Seqno.zero;
    is_ack = false;
    flags;
    wnd = 0;
    payload_len = len;
    sack_blocks = [];
    ts_val = Sim.Scheduler.now t.sched;
    ts_ecr = Sim.Time.zero;
  }

(* --- local congestion (send-stall) ----------------------------------- *)

let react_to_stall t =
  t.send_stall <- t.send_stall + 1;
  trace t ~code:Trace.Code.tcp_send_stall ~arg1:t.send_stall
    ~arg2:(Netsim.Ifq.occupancy (Netsim.Host.ifq t.host));
  if t.una >= t.reaction_mark then begin
    (* At most one window reduction per round trip, like the kernel. *)
    t.reaction_mark <- t.nxt;
    let mss = t.cfg.Config.mss in
    let floor = 2. *. float_of_int mss in
    match t.cfg.Config.local_congestion with
    | Local_congestion.Halve ->
        t.congestion_signals <- t.congestion_signals + 1;
        t.win.ssthresh <- Float.max floor (float_of_int (flight_bytes t) /. 2.);
        t.win.cwnd <- t.win.ssthresh;
        if t.phase = Slow_start_p then t.phase <- Cong_avoid_p
    | Local_congestion.Cwr ->
        t.congestion_signals <- t.congestion_signals + 1;
        t.win.cwnd <- Float.max floor (t.win.cwnd *. 0.7);
        if t.phase = Slow_start_p then t.phase <- Cong_avoid_p
    | Local_congestion.Ignore -> ()
  end

(* --- transmission ----------------------------------------------------- *)

(* Send data bytes [lo, hi); true on success, false on send-stall. *)
let transmit_range t ~retx (lo, hi) =
  let len = hi - lo in
  assert (len > 0);
  let flags = if t.cwr_pending then [ Proto.Tcp_header.Cwr ] else [] in
  let header = make_header t ~offset:lo ~len ~flags in
  let pkt =
    Netsim.Packet.make
      ~id:(Netsim.Packet.Id_source.next t.ids)
      ~flow:t.flow ~src:(Netsim.Host.id t.host) ~dst:t.dst
      ~created:(Sim.Scheduler.now t.sched)
      (Proto.Payload.Tcp header)
  in
  match Netsim.Host.send t.host pkt with
  | `Sent ->
      t.cwr_pending <- false;
      t.last_data_send <- Sim.Scheduler.now t.sched;
      t.pkts_out <- t.pkts_out + 1;
      t.data_bytes_out <- t.data_bytes_out + len;
      t.bytes_sent <- t.bytes_sent + len;
      if retx then begin
        t.pkts_retrans <- t.pkts_retrans + 1;
        t.bytes_retrans <- t.bytes_retrans + len;
        trace t ~code:Trace.Code.tcp_retransmit ~arg1:lo ~arg2:len
      end;
      true
  | `Stalled ->
      t.stalled <- true;
      react_to_stall t;
      false

let retransmit t (lo, hi) =
  if not (transmit_range t ~retx:true (lo, hi)) then
    t.pending_retx <- Some (lo, hi)

let cancel_rto t =
  match t.rto_handle with
  | Some h ->
      Sim.Scheduler.cancel t.sched h;
      t.rto_handle <- None
  | None -> ()

(* Re-arming reuses the sender's one preallocated callback: nothing on
   the RTO path allocates a per-arm closure. *)
let arm_rto t =
  cancel_rto t;
  let delay = Rtt_estimator.rto t.rtt in
  t.rto_handle <- Some (Sim.Scheduler.after t.sched delay t.rto_cb)

let rec on_rto t =
  t.rto_handle <- None;
  if t.phase = Syn_sent then begin
    (* Lost SYN: back off and retry. *)
    t.timeouts <- t.timeouts + 1;
    Rtt_estimator.backoff t.rtt;
    send_syn t;
    arm_rto t;
    update_gauges t
  end
  else if flight_bytes t > 0 || t.nxt > t.una then begin
    t.timeouts <- t.timeouts + 1;
    t.congestion_signals <- t.congestion_signals + 1;
    trace t ~code:Trace.Code.tcp_rto
      ~arg1:(Rtt_estimator.backoff_factor t.rtt)
      ~arg2:(flight_bytes t);
    let ssthresh', cwnd' =
      t.cc.Cong_avoid.on_rto ~cwnd:t.win.cwnd ~flight:(flight_bytes t)
        ~mss:t.cfg.Config.mss
    in
    t.win.ssthresh <- ssthresh';
    t.win.cwnd <- cwnd';
    (* Go-back-N: everything past the ACK point is presumed lost; the
       SACK scoreboard is invalidated (RFC 6675 §5.1). *)
    t.nxt <- t.una;
    Sack_scoreboard.reset t.scoreboard;
    Interval_set.remove_below t.retx_done max_int;
    t.dupacks <- 0;
    t.pending_retx <- None;
    t.ss.Slow_start.reset ();
    t.phase <- Slow_start_p;
    Rtt_estimator.backoff t.rtt;
    arm_rto t;
    update_gauges t;
    try_send t
  end

and send_syn t =
  let header =
    {
      (make_header t ~offset:(-1) ~len:0 ~flags:[ Proto.Tcp_header.Syn ]) with
      Proto.Tcp_header.seq = t.iss;
    }
  in
  let pkt =
    Netsim.Packet.make
      ~id:(Netsim.Packet.Id_source.next t.ids)
      ~flow:t.flow ~src:(Netsim.Host.id t.host) ~dst:t.dst
      ~created:(Sim.Scheduler.now t.sched)
      (Proto.Payload.Tcp header)
  in
  (match Netsim.Host.send t.host pkt with
  | `Sent -> t.pkts_out <- t.pkts_out + 1
  | `Stalled -> react_to_stall t)

(* During SACK recovery: fill holes first, then new data, respecting the
   deflated pipe. *)
and sack_recovery_send t =
  let mss = t.cfg.Config.mss in
  let continue = ref true in
  while
    !continue && not t.stalled
    && float_of_int (flight_bytes t + mss) <= t.win.cwnd
  do
    match next_unfilled_hole t with
    | Some (lo, hi) ->
        Interval_set.add t.retx_done ~lo ~hi;
        if transmit_range t ~retx:true (lo, hi) then ()
        else begin
          t.pending_retx <- Some (lo, hi);
          continue := false
        end
    | None -> (
        (* New data during recovery must still respect the receiver's
           advertised window, not just the pipe rule. *)
        match new_data_range t with
        | Some ((lo, hi) as range)
          when float_of_int (flight_bytes t + (hi - lo))
               <= Float.min t.win.cwnd (float_of_int t.rwnd) ->
            if transmit_range t ~retx:false range then t.nxt <- hi
            else continue := false
        | Some _ | None -> continue := false)
  done

and next_unfilled_hole t =
  let mss = t.cfg.Config.mss in
  let rec search from =
    match Sack_scoreboard.next_hole t.scoreboard ~una:from ~mss with
    | None -> None
    | Some (lo, hi) ->
        if Interval_set.contains_range t.retx_done ~lo ~hi then search hi
        else Some (lo, hi)
  in
  search t.una

and new_data_range t =
  let mss = t.cfg.Config.mss in
  let remaining =
    match t.total with None -> mss | Some total -> total - t.nxt
  in
  let len = Int.min mss remaining in
  if len <= 0 then None else Some (t.nxt, t.nxt + len)

(* Pacing: minimum spacing between data segments so the window is
   released at gain·cwnd/srtt instead of in line-rate bursts. *)
and pace_interval t ~bytes =
  match Rtt_estimator.srtt t.rtt with
  | None -> Sim.Time.zero
  | Some srtt ->
      let gain =
        if t.phase = Slow_start_p then t.cfg.Config.pace_ss_gain
        else t.cfg.Config.pace_ca_gain
      in
      let rate_bytes_per_sec =
        gain *. t.win.cwnd /. Float.max 1e-6 (Sim.Time.to_sec srtt)
      in
      Sim.Time.of_sec (float_of_int bytes /. rate_bytes_per_sec)

and pace_gate t ~bytes =
  (* true = clear to send now; false = deferred to the pacing timer. *)
  if not t.cfg.Config.pacing then true
  else begin
    let now = Sim.Scheduler.now t.sched in
    if Sim.Time.(now >= t.next_pace_time) then begin
      t.next_pace_time <-
        Sim.Time.add
          (Sim.Time.max now t.next_pace_time)
          (pace_interval t ~bytes);
      true
    end
    else begin
      (if Option.is_none t.pace_timer then
         let delay = Sim.Time.sub t.next_pace_time now in
         t.pace_timer <- Some (Sim.Scheduler.after t.sched delay t.pace_cb));
      false
    end
  end

(* RFC 2861: a connection idle past its RTO has lost its ACK clock; the
   old window would be released as one huge burst. Linux restarts from
   the initial window in slow-start — replaying, on every application
   burst, exactly the pathology the paper studies. *)
and maybe_idle_restart t =
  if
    t.cfg.Config.slow_start_restart && t.phase <> Syn_sent
    && flight_bytes t = 0
    && Sim.Time.(
         Sim.Time.sub (Sim.Scheduler.now t.sched) t.last_data_send
         > Rtt_estimator.rto t.rtt)
  then begin
    let iw =
      float_of_int (t.cfg.Config.init_cwnd_segments * t.cfg.Config.mss)
    in
    if t.win.cwnd > iw then begin
      t.win.cwnd <- iw;
      t.ss.Slow_start.reset ();
      t.phase <- Slow_start_p
    end
  end

and try_send t =
  if
    t.started && not t.completed && not t.stalled && t.phase <> Syn_sent
  then begin
    maybe_idle_restart t;
    (match t.pending_retx with
    | Some range ->
        t.pending_retx <- None;
        retransmit t range
    | None -> ());
    if not t.stalled && t.phase = Fast_recovery && t.cfg.Config.use_sack then
      sack_recovery_send t
    else begin
      let wnd = Float.min t.win.cwnd (float_of_int t.rwnd) in
      let continue = ref true in
      while !continue && not t.stalled do
        match new_data_range t with
        | Some ((lo, hi) as range)
          when float_of_int (flight_bytes t + (hi - lo)) <= wnd ->
            if not (pace_gate t ~bytes:(hi - lo)) then continue := false
            else if transmit_range t ~retx:false range then t.nxt <- hi
            else continue := false
        | Some _ | None -> continue := false
      done
    end;
    if flight_bytes t > 0 && Option.is_none t.rto_handle then arm_rto t;
    update_gauges t
  end

(* --- ACK processing --------------------------------------------------- *)

let check_complete t =
  match t.total with
  | Some total when not t.completed && t.una >= total ->
      t.completed <- true;
      cancel_rto t;
      List.iter (fun cb -> cb ()) (List.rev t.complete_cbs)
  | Some _ | None -> ()

let enter_fast_recovery t =
  t.fast_retran <- t.fast_retran + 1;
  t.congestion_signals <- t.congestion_signals + 1;
  trace t ~code:Trace.Code.tcp_fast_retransmit ~arg1:t.una ~arg2:t.nxt;
  let mss = t.cfg.Config.mss in
  let ssthresh', cwnd' =
    t.cc.Cong_avoid.on_loss ~cwnd:t.win.cwnd ~flight:(flight_bytes t) ~mss
      ~now:(Sim.Scheduler.now t.sched)
  in
  t.win.ssthresh <- ssthresh';
  t.recover <- t.nxt;
  Interval_set.remove_below t.retx_done max_int;
  t.phase <- Fast_recovery;
  if t.cfg.Config.use_sack then begin
    t.win.cwnd <- cwnd';
    let hole_hi = Int.min (t.una + mss) t.nxt in
    Interval_set.add t.retx_done ~lo:t.una ~hi:hole_hi;
    retransmit t (t.una, hole_hi);
    if not t.stalled then sack_recovery_send t
  end
  else begin
    (* NewReno: retransmit the presumed-lost head and inflate by the
       three duplicates (RFC 5681 §3.2). *)
    t.win.cwnd <- cwnd' +. (3. *. float_of_int mss);
    let hole_hi = Int.min (t.una + mss) t.nxt in
    retransmit t (t.una, hole_hi)
  end;
  arm_rto t

let on_dupack t header =
  t.dup_acks_in <- t.dup_acks_in + 1;
  t.dupacks <- t.dupacks + 1;
  (if t.cfg.Config.use_sack then
     let blocks =
       List.map
         (fun (a, b) -> (offset_of_seq t a, offset_of_seq t b))
         header.Proto.Tcp_header.sack_blocks
     in
     Sack_scoreboard.record t.scoreboard ~blocks ~una:t.una);
  match t.phase with
  | Fast_recovery ->
      if t.cfg.Config.use_sack then sack_recovery_send t
      else begin
        (* Window inflation: each duplicate signals a departure. *)
        t.win.cwnd <- t.win.cwnd +. mssf t;
        try_send t
      end
  | Slow_start_p | Cong_avoid_p ->
      if t.dupacks >= t.cfg.Config.dupack_threshold && flight_bytes t > 0
      then enter_fast_recovery t
  | Syn_sent -> ()

let on_new_ack t ~newly ~rtt_sample header =
  let mss = t.cfg.Config.mss in
  let floor = 2. *. float_of_int mss in
  t.dupacks <- 0;
  Rtt_estimator.reset_backoff t.rtt;
  if t.cfg.Config.use_sack then begin
    Sack_scoreboard.advance_una t.scoreboard t.una;
    let blocks =
      List.map
        (fun (a, b) -> (offset_of_seq t a, offset_of_seq t b))
        header.Proto.Tcp_header.sack_blocks
    in
    if blocks <> [] then
      Sack_scoreboard.record t.scoreboard ~blocks ~una:t.una
  end;
  (match t.phase with
  | Fast_recovery ->
      if t.una >= t.recover then begin
        (* Full acknowledgment: deflate and resume avoidance. *)
        t.win.cwnd <- Float.max floor t.win.ssthresh;
        t.phase <- Cong_avoid_p;
        Interval_set.remove_below t.retx_done max_int
      end
      else if t.cfg.Config.use_sack then sack_recovery_send t
      else begin
        (* NewReno partial ACK: next hole is also lost. *)
        let hole_hi = Int.min (t.una + mss) t.nxt in
        retransmit t (t.una, hole_hi);
        t.win.cwnd <-
          Float.max floor
            (t.win.cwnd -. float_of_int newly +. float_of_int mss);
        arm_rto t
      end
  | Slow_start_p ->
      t.slow_start_acks <- t.slow_start_acks + 1;
      let decision =
        t.ss.Slow_start.on_ack t.ss_view ~newly_acked:newly ~rtt_sample
      in
      t.win.cwnd <-
        Float.max floor (t.win.cwnd +. decision.Slow_start.cwnd_delta);
      if decision.Slow_start.exit_slow_start then begin
        t.win.ssthresh <- t.win.cwnd;
        t.phase <- Cong_avoid_p
      end
      else if t.win.cwnd >= t.win.ssthresh then t.phase <- Cong_avoid_p
  | Cong_avoid_p ->
      t.cong_avoid_acks <- t.cong_avoid_acks + 1;
      t.win.cwnd <-
        t.cc.Cong_avoid.on_ack ~newly_acked:newly ~cwnd:t.win.cwnd ~mss
          ~srtt:(Rtt_estimator.srtt t.rtt)
          ~min_rtt:(Rtt_estimator.min_rtt t.rtt)
          ~now:(Sim.Scheduler.now t.sched)
  | Syn_sent -> ());
  if flight_bytes t > 0 then arm_rto t else cancel_rto t;
  check_complete t;
  try_send t

let handle_ack t header =
  t.acks_in <- t.acks_in + 1;
  let now = Sim.Scheduler.now t.sched in
  (* Karn's rule, timestamp form: only an ACK that advances snd_una (or
     the SYN-ACK) feeds the estimator. A duplicated or long-delayed old
     segment makes the receiver re-ACK echoing that segment's ancient
     ts_val; sampling it would inflate SRTT/RTO by the whole detour. *)
  let rtt_sample =
    let ecr = header.Proto.Tcp_header.ts_ecr in
    if Sim.Time.(ecr > Sim.Time.zero) then Some (Sim.Time.sub now ecr)
    else None
  in
  let take_sample () =
    match rtt_sample with
    | Some s -> Rtt_estimator.sample t.rtt s
    | None -> ()
  in
  let prev_rwnd = t.rwnd in
  t.rwnd <- Int.max 0 header.Proto.Tcp_header.wnd;
  t.gauges.max_rwin_rcvd <-
    Float.max t.gauges.max_rwin_rcvd (float_of_int t.rwnd);
  (* ECN echo: same once-per-window multiplicative decrease as a loss,
     but nothing needs retransmitting (RFC 3168 §6.1.2). *)
  if
    Proto.Tcp_header.has_flag header Proto.Tcp_header.Ece
    && t.phase <> Syn_sent && t.phase <> Fast_recovery
    && t.una >= t.reaction_mark
  then begin
    t.reaction_mark <- t.nxt;
    t.congestion_signals <- t.congestion_signals + 1;
    let ssthresh', cwnd' =
      t.cc.Cong_avoid.on_loss ~cwnd:t.win.cwnd ~flight:(flight_bytes t)
        ~mss:t.cfg.Config.mss ~now
    in
    t.win.ssthresh <- ssthresh';
    t.win.cwnd <- cwnd';
    if t.phase = Slow_start_p then t.phase <- Cong_avoid_p;
    t.cwr_pending <- true
  end;
  if t.phase = Syn_sent then begin
    if Proto.Tcp_header.has_flag header Proto.Tcp_header.Syn then begin
      (* SYN/ACK: connection established. *)
      take_sample ();
      cancel_rto t;
      Rtt_estimator.reset_backoff t.rtt;
      t.phase <- Slow_start_p;
      t.win.cwnd <-
        float_of_int (t.cfg.Config.init_cwnd_segments * t.cfg.Config.mss);
      update_gauges t;
      try_send t
    end
  end
  else begin
    let ack_off = offset_of_seq t header.Proto.Tcp_header.ack in
    if ack_off > t.una && ack_off <= t.una + (1 lsl 30) then begin
      take_sample ();
      (* An ACK above snd_nxt is possible after go-back-N regressed
         snd_nxt: the receiver is acknowledging pre-timeout data. The
         data exists; resynchronize snd_nxt instead of dropping the
         ACK (which would deadlock the connection). *)
      if ack_off > t.nxt then t.nxt <- ack_off;
      let newly = ack_off - t.una in
      t.una <- ack_off;
      if t.una >= t.reaction_mark then t.reaction_mark <- t.una;
      on_new_ack t ~newly ~rtt_sample header
    end
    else if
      ack_off = t.una && t.nxt > t.una
      && header.Proto.Tcp_header.payload_len = 0
    then
      if t.rwnd = prev_rwnd then on_dupack t header
      else
        (* Same ACK point but a changed window: a window update, not a
           duplicate (RFC 5681 §2). The reopened window may unblock us. *)
        try_send t
    else if t.rwnd > prev_rwnd then try_send t
  end;
  update_gauges t

let handle_packet t pkt =
  match pkt.Netsim.Packet.payload with
  | Proto.Payload.Tcp header when header.Proto.Tcp_header.is_ack ->
      handle_ack t header
  | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> ()

(* --- construction ------------------------------------------------------ *)

let create ~host ~dst ~flow ~ids ?(config = Config.default)
    ?(slow_start = Slow_start.standard ()) ?(cong_avoid = Cong_avoid.reno ())
    () =
  let sched = Netsim.Host.scheduler host in
  let ifq = Netsim.Host.ifq host in
  let rec t =
    {
      host;
      sched;
      dst;
      flow;
      ids;
      cfg = config;
      ss = slow_start;
      cc = cong_avoid;
      rtt =
        Rtt_estimator.create ~min_rto:config.Config.min_rto
          ~max_rto:config.Config.max_rto ();
      scoreboard = Sack_scoreboard.create ();
      retx_done = Interval_set.create ();
      iss = Proto.Seqno.of_int (0x1000 + (flow * 0x2711));
      win =
        {
          cwnd =
            float_of_int (config.Config.init_cwnd_segments * config.Config.mss);
          ssthresh = config.Config.init_ssthresh;
          last_traced_cwnd = nan;
        };
      phase = Syn_sent;
      una = 0;
      nxt = 0;
      rwnd = config.Config.rcv_wnd;
      dupacks = 0;
      recover = 0;
      reaction_mark = 0;
      bytes_sent = 0;
      next_pace_time = Sim.Time.zero;
      last_data_send = Sim.Time.zero;
      stalled = false;
      completed = false;
      started = false;
      cwr_pending = false;
      total = None;
      rto_handle = None;
      rto_cb = ignore;
      pace_cb = ignore;
      pending_retx = None;
      complete_cbs = [];
      pace_timer = None;
      tracer = None;
      pkts_out = 0;
      data_bytes_out = 0;
      pkts_retrans = 0;
      bytes_retrans = 0;
      congestion_signals = 0;
      send_stall = 0;
      timeouts = 0;
      dup_acks_in = 0;
      fast_retran = 0;
      acks_in = 0;
      slow_start_acks = 0;
      cong_avoid_acks = 0;
      gauges =
        {
          cur_cwnd = 0.;
          cur_ssthresh = 0.;
          smoothed_rtt = 0.;
          cur_rto = 0.;
          min_rtt = 0.;
          max_rwin_rcvd = 0.;
          cur_ifq = 0.;
        };
      ss_view =
        {
          Slow_start.now = (fun () -> Sim.Scheduler.now sched);
          mss = config.Config.mss;
          cwnd = (fun () -> t.win.cwnd);
          ssthresh = (fun () -> t.win.ssthresh);
          flight = (fun () -> flight_bytes t);
          snd_una = (fun () -> t.una);
          snd_nxt = (fun () -> t.nxt);
          srtt = (fun () -> Rtt_estimator.srtt t.rtt);
          min_rtt = (fun () -> Rtt_estimator.min_rtt t.rtt);
          ifq_occupancy = (fun () -> Netsim.Ifq.occupancy ifq);
          ifq_capacity = (fun () -> Netsim.Ifq.capacity ifq);
        };
    }
  in
  t.rto_cb <- (fun () -> on_rto t);
  t.pace_cb <-
    (fun () ->
      t.pace_timer <- None;
      try_send t);
  Netsim.Host.register_flow host ~flow (fun pkt -> handle_packet t pkt);
  Netsim.Ifq.on_space ifq (fun () ->
      if t.stalled then begin
        t.stalled <- false;
        try_send t
      end);
  t

let start t ?bytes () =
  if t.started then invalid_arg "Sender.start: already started";
  t.started <- true;
  t.total <- bytes;
  send_syn t;
  arm_rto t;
  update_gauges t

let supply t n =
  if n <= 0 then invalid_arg "Sender.supply: need a positive byte count";
  match t.total with
  | None ->
      invalid_arg "Sender.supply: connection already sends unlimited data"
  | Some total ->
      t.total <- Some (total + n);
      t.completed <- false;
      if t.started then try_send t

let on_complete t cb = t.complete_cbs <- cb :: t.complete_cbs

(* --- accessors --------------------------------------------------------- *)

let phase t = t.phase
let cwnd t = t.win.cwnd
let flight t = flight_bytes t
let bytes_acked t = t.una
let bytes_sent t = t.bytes_sent
let srtt t = Rtt_estimator.srtt t.rtt
let rto t = Rtt_estimator.rto t.rtt
let rto_backoff t = Rtt_estimator.backoff_factor t.rtt
let send_stalls t = t.send_stall
let congestion_signals t = t.congestion_signals
let timeouts t = t.timeouts
let retransmits t = t.pkts_retrans

let kis =
  let count f t = float_of_int (f t) in
  [
    ("PktsOut", count (fun t -> t.pkts_out));
    ("DataBytesOut", count (fun t -> t.data_bytes_out));
    ("PktsRetrans", count (fun t -> t.pkts_retrans));
    ("BytesRetrans", count (fun t -> t.bytes_retrans));
    ("CongestionSignals", count (fun t -> t.congestion_signals));
    ("SendStall", count (fun t -> t.send_stall));
    ("Timeouts", count (fun t -> t.timeouts));
    ("DupAcksIn", count (fun t -> t.dup_acks_in));
    ("FastRetran", count (fun t -> t.fast_retran));
    ("AcksIn", count (fun t -> t.acks_in));
    ("CurCwnd", fun t -> t.gauges.cur_cwnd);
    ("CurSsthresh", fun t -> t.gauges.cur_ssthresh);
    ("SmoothedRTT", fun t -> t.gauges.smoothed_rtt);
    ("CurRTO", fun t -> t.gauges.cur_rto);
    ("MinRTT", fun t -> t.gauges.min_rtt);
    ("MaxRwinRcvd", fun t -> t.gauges.max_rwin_rcvd);
    ("SlowStart", count (fun t -> t.slow_start_acks));
    ("CongAvoid", count (fun t -> t.cong_avoid_acks));
    ("CurIFQ", fun t -> t.gauges.cur_ifq);
  ]
