type phase = Syn_sent | Slow_start_p | Cong_avoid_p | Fast_recovery

let phase_to_string = function
  | Syn_sent -> "syn-sent"
  | Slow_start_p -> "slow-start"
  | Cong_avoid_p -> "cong-avoid"
  | Fast_recovery -> "fast-recovery"

(* Phase codes in the Flow_table flags column. *)
let code_of_phase = function
  | Syn_sent -> 0
  | Slow_start_p -> 1
  | Cong_avoid_p -> 2
  | Fast_recovery -> 3

let phase_of_code = function
  | 0 -> Syn_sent
  | 1 -> Slow_start_p
  | 2 -> Cong_avoid_p
  | _ -> Fast_recovery

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

(* The numeric fast-path state (windows, offsets, counters, latches)
   lives in a {!Flow_table} row — flat SoA storage shared by every
   sender built over the same table — while this record keeps the
   boxed wiring: host, policies, estimators, callbacks, and the web100
   counters and gauges that {!kis} exposes. *)
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
  table : Flow_table.t;
  row : int;
  mutable total : int option;
  mutable rto_handle : Sim.Scheduler.handle option;
  mutable rto_cb : unit -> unit; (* one closure per sender, not per arm *)
  mutable pace_cb : unit -> unit;
  mutable pending_retx : (int * int) option;
  mutable complete_cbs : (unit -> unit) list;
  mutable pace_timer : Sim.Scheduler.handle option;
  mutable tracer : Trace.t option;
  mutable last_traced_cwnd : float; (* dedupe tcp.cwnd records *)
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
}

(* Row accessors, named after the mutable fields they replaced.
   Unwrapped byte offsets: data byte 0 maps to seqno iss+1. *)
let una t = Flow_table.una t.table t.row
let set_una t v = Flow_table.set_una t.table t.row v
let nxt t = Flow_table.nxt t.table t.row
let set_nxt t v = Flow_table.set_nxt t.table t.row v
let cwnd_b t = Flow_table.cwnd t.table t.row
let set_cwnd_b t v = Flow_table.set_cwnd t.table t.row v
let ssthresh_b t = Flow_table.ssthresh t.table t.row
let set_ssthresh_b t v = Flow_table.set_ssthresh t.table t.row v
let rwnd t = Flow_table.rwnd t.table t.row
let set_rwnd t v = Flow_table.set_rwnd t.table t.row v
let ph t = phase_of_code (Flow_table.phase t.table t.row)
let set_ph t p = Flow_table.set_phase t.table t.row (code_of_phase p)
let dupacks t = Flow_table.dupacks t.table t.row
let set_dupacks t v = Flow_table.set_dupacks t.table t.row v
let recover t = Flow_table.recover t.table t.row
let set_recover t v = Flow_table.set_recover t.table t.row v
let reaction_mark t = Flow_table.reaction_mark t.table t.row
let set_reaction_mark t v = Flow_table.set_reaction_mark t.table t.row v
let bytes_sent_total t = Flow_table.bytes_sent t.table t.row

let add_bytes_sent t n =
  Flow_table.set_bytes_sent t.table t.row (bytes_sent_total t + n)

let stalled t = Flow_table.stalled t.table t.row
let set_stalled t v = Flow_table.set_stalled t.table t.row v
let completed t = Flow_table.completed t.table t.row
let set_completed t v = Flow_table.set_completed t.table t.row v
let started t = Flow_table.started t.table t.row
let set_started t v = Flow_table.set_started t.table t.row v
let cwr_pending t = Flow_table.cwr_pending t.table t.row
let set_cwr_pending t v = Flow_table.set_cwr_pending t.table t.row v

let next_pace_time t =
  Sim.Time.of_ns_int (Flow_table.next_pace_ns t.table t.row)

let set_next_pace_time t v =
  Flow_table.set_next_pace_ns t.table t.row (Sim.Time.to_ns_int v)

let last_data_send t =
  Sim.Time.of_ns_int (Flow_table.last_send_ns t.table t.row)

let set_last_data_send t v =
  Flow_table.set_last_send_ns t.table t.row (Sim.Time.to_ns_int v)

let mssf t = float_of_int t.cfg.Config.mss

let seq_of_offset t off = Proto.Seqno.add t.iss (1 + off)

(* Unwrap a 32-bit ack back to an absolute offset, anchored at una:
   valid because in-flight distances stay far below 2^31. *)
let offset_of_seq t seqno =
  una t + Proto.Seqno.diff seqno (seq_of_offset t (una t))

let flight_bytes t =
  let raw = nxt t - una t in
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
      if cwnd_b t <> t.last_traced_cwnd then begin
        t.last_traced_cwnd <- cwnd_b t;
        let ssthresh =
          if ssthresh_b t >= float_of_int max_int then max_int
          else int_of_float (ssthresh_b t)
        in
        trace t ~code:Trace.Code.tcp_cwnd ~arg1:(int_of_float (cwnd_b t))
          ~arg2:ssthresh
      end

let update_gauges t =
  let g = t.gauges in
  g.cur_cwnd <- cwnd_b t;
  g.cur_ssthresh <-
    (if ssthresh_b t = infinity then Float.max_float else ssthresh_b t);
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

let view t : Slow_start.view =
  let ifq = Netsim.Host.ifq t.host in
  {
    Slow_start.now = (fun () -> Sim.Scheduler.now t.sched);
    mss = t.cfg.Config.mss;
    cwnd = (fun () -> cwnd_b t);
    ssthresh = (fun () -> ssthresh_b t);
    flight = (fun () -> flight_bytes t);
    snd_una = (fun () -> una t);
    snd_nxt = (fun () -> nxt t);
    srtt = (fun () -> Rtt_estimator.srtt t.rtt);
    min_rtt = (fun () -> Rtt_estimator.min_rtt t.rtt);
    ifq_occupancy = (fun () -> Netsim.Ifq.occupancy ifq);
    ifq_capacity = (fun () -> Netsim.Ifq.capacity ifq);
  }

(* --- local congestion (send-stall) ----------------------------------- *)

let react_to_stall t =
  t.send_stall <- t.send_stall + 1;
  trace t ~code:Trace.Code.tcp_send_stall ~arg1:t.send_stall
    ~arg2:(Netsim.Ifq.occupancy (Netsim.Host.ifq t.host));
  if una t >= reaction_mark t then begin
    (* At most one window reduction per round trip, like the kernel. *)
    set_reaction_mark t (nxt t);
    let mss = t.cfg.Config.mss in
    let floor = 2. *. float_of_int mss in
    match t.cfg.Config.local_congestion with
    | Local_congestion.Halve ->
        t.congestion_signals <- t.congestion_signals + 1;
        set_ssthresh_b t
          (Float.max floor (float_of_int (flight_bytes t) /. 2.));
        set_cwnd_b t (ssthresh_b t);
        if ph t = Slow_start_p then set_ph t Cong_avoid_p
    | Local_congestion.Cwr ->
        t.congestion_signals <- t.congestion_signals + 1;
        set_cwnd_b t (Float.max floor (cwnd_b t *. 0.7));
        if ph t = Slow_start_p then set_ph t Cong_avoid_p
    | Local_congestion.Ignore -> ()
  end

(* --- transmission ----------------------------------------------------- *)

(* Send data bytes [lo, hi); true on success, false on send-stall. *)
let transmit_range t ~retx (lo, hi) =
  let len = hi - lo in
  assert (len > 0);
  let flags = if cwr_pending t then [ Proto.Tcp_header.Cwr ] else [] in
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
      set_cwr_pending t false;
      set_last_data_send t (Sim.Scheduler.now t.sched);
      t.pkts_out <- t.pkts_out + 1;
      t.data_bytes_out <- t.data_bytes_out + len;
      add_bytes_sent t len;
      if retx then begin
        t.pkts_retrans <- t.pkts_retrans + 1;
        t.bytes_retrans <- t.bytes_retrans + len;
        trace t ~code:Trace.Code.tcp_retransmit ~arg1:lo ~arg2:len
      end;
      true
  | `Stalled ->
      set_stalled t true;
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
  if ph t = Syn_sent then begin
    (* Lost SYN: back off and retry. *)
    t.timeouts <- t.timeouts + 1;
    Rtt_estimator.backoff t.rtt;
    send_syn t;
    arm_rto t
  end
  else if flight_bytes t > 0 || nxt t > una t then begin
    t.timeouts <- t.timeouts + 1;
    t.congestion_signals <- t.congestion_signals + 1;
    trace t ~code:Trace.Code.tcp_rto
      ~arg1:(Rtt_estimator.backoff_factor t.rtt)
      ~arg2:(flight_bytes t);
    Flow_table.ca_on_rto t.table t.row t.cc ~flight:(flight_bytes t)
      ~mss:t.cfg.Config.mss;
    (* Go-back-N: everything past the ACK point is presumed lost; the
       SACK scoreboard is invalidated (RFC 6675 §5.1). *)
    set_nxt t (una t);
    Sack_scoreboard.reset t.scoreboard;
    Interval_set.remove_below t.retx_done max_int;
    set_dupacks t 0;
    t.pending_retx <- None;
    t.ss.Slow_start.reset ();
    set_ph t Slow_start_p;
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
    !continue && (not (stalled t))
    && float_of_int (flight_bytes t + mss) <= cwnd_b t
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
               <= Float.min (cwnd_b t) (float_of_int (rwnd t)) ->
            if transmit_range t ~retx:false range then set_nxt t hi
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
  search (una t)

and new_data_range t =
  let mss = t.cfg.Config.mss in
  let remaining =
    match t.total with None -> mss | Some total -> total - nxt t
  in
  let len = Stdlib.min mss remaining in
  if len <= 0 then None else Some (nxt t, nxt t + len)

(* Pacing: minimum spacing between data segments so the window is
   released at gain·cwnd/srtt instead of in line-rate bursts. *)
and pace_interval t ~bytes =
  match Rtt_estimator.srtt t.rtt with
  | None -> Sim.Time.zero
  | Some srtt ->
      let gain =
        if ph t = Slow_start_p then t.cfg.Config.pace_ss_gain
        else t.cfg.Config.pace_ca_gain
      in
      let rate_bytes_per_sec =
        gain *. cwnd_b t /. Float.max 1e-6 (Sim.Time.to_sec srtt)
      in
      Sim.Time.of_sec (float_of_int bytes /. rate_bytes_per_sec)

and pace_gate t ~bytes =
  (* true = clear to send now; false = deferred to the pacing timer. *)
  if not t.cfg.Config.pacing then true
  else begin
    let now = Sim.Scheduler.now t.sched in
    if Sim.Time.(now >= next_pace_time t) then begin
      set_next_pace_time t
        (Sim.Time.add
           (Sim.Time.max now (next_pace_time t))
           (pace_interval t ~bytes));
      true
    end
    else begin
      (if Option.is_none t.pace_timer then
         let delay = Sim.Time.sub (next_pace_time t) now in
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
    t.cfg.Config.slow_start_restart && ph t <> Syn_sent
    && flight_bytes t = 0
    && Sim.Time.(
         Sim.Time.sub (Sim.Scheduler.now t.sched) (last_data_send t)
         > Rtt_estimator.rto t.rtt)
  then begin
    let iw =
      float_of_int (t.cfg.Config.init_cwnd_segments * t.cfg.Config.mss)
    in
    if cwnd_b t > iw then begin
      set_cwnd_b t iw;
      t.ss.Slow_start.reset ();
      set_ph t Slow_start_p
    end
  end

and try_send t =
  if
    started t && (not (completed t)) && (not (stalled t)) && ph t <> Syn_sent
  then begin
    maybe_idle_restart t;
    (match t.pending_retx with
    | Some range ->
        t.pending_retx <- None;
        retransmit t range
    | None -> ());
    if (not (stalled t)) && ph t = Fast_recovery && t.cfg.Config.use_sack then
      sack_recovery_send t
    else begin
      let wnd = Float.min (cwnd_b t) (float_of_int (rwnd t)) in
      let continue = ref true in
      while !continue && not (stalled t) do
        match new_data_range t with
        | Some ((lo, hi) as range)
          when float_of_int (flight_bytes t + (hi - lo)) <= wnd ->
            if not (pace_gate t ~bytes:(hi - lo)) then continue := false
            else if transmit_range t ~retx:false range then set_nxt t hi
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
  | Some total when (not (completed t)) && una t >= total ->
      set_completed t true;
      cancel_rto t;
      List.iter (fun cb -> cb ()) (List.rev t.complete_cbs)
  | Some _ | None -> ()

let enter_fast_recovery t =
  t.fast_retran <- t.fast_retran + 1;
  t.congestion_signals <- t.congestion_signals + 1;
  trace t ~code:Trace.Code.tcp_fast_retransmit ~arg1:(una t) ~arg2:(nxt t);
  let mss = t.cfg.Config.mss in
  let ssthresh', cwnd' =
    t.cc.Cong_avoid.on_loss ~cwnd:(cwnd_b t) ~flight:(flight_bytes t) ~mss
      ~now:(Sim.Scheduler.now t.sched)
  in
  set_ssthresh_b t ssthresh';
  set_recover t (nxt t);
  Interval_set.remove_below t.retx_done max_int;
  set_ph t Fast_recovery;
  if t.cfg.Config.use_sack then begin
    set_cwnd_b t cwnd';
    let hole_hi = Stdlib.min (una t + mss) (nxt t) in
    Interval_set.add t.retx_done ~lo:(una t) ~hi:hole_hi;
    retransmit t (una t, hole_hi);
    if not (stalled t) then sack_recovery_send t
  end
  else begin
    (* NewReno: retransmit the presumed-lost head and inflate by the
       three duplicates (RFC 5681 §3.2). *)
    set_cwnd_b t (cwnd' +. (3. *. float_of_int mss));
    let hole_hi = Stdlib.min (una t + mss) (nxt t) in
    retransmit t (una t, hole_hi)
  end;
  arm_rto t

let on_dupack t header =
  t.dup_acks_in <- t.dup_acks_in + 1;
  set_dupacks t (dupacks t + 1);
  (if t.cfg.Config.use_sack then
     let blocks =
       List.map
         (fun (a, b) -> (offset_of_seq t a, offset_of_seq t b))
         header.Proto.Tcp_header.sack_blocks
     in
     Sack_scoreboard.record t.scoreboard ~blocks ~una:(una t));
  match ph t with
  | Fast_recovery ->
      if t.cfg.Config.use_sack then sack_recovery_send t
      else begin
        (* Window inflation: each duplicate signals a departure. *)
        set_cwnd_b t (cwnd_b t +. mssf t);
        try_send t
      end
  | Slow_start_p | Cong_avoid_p ->
      if dupacks t >= t.cfg.Config.dupack_threshold && flight_bytes t > 0
      then enter_fast_recovery t
  | Syn_sent -> ()

let on_new_ack t ~newly ~rtt_sample header =
  let mss = t.cfg.Config.mss in
  let floor = 2. *. float_of_int mss in
  set_dupacks t 0;
  Rtt_estimator.reset_backoff t.rtt;
  if t.cfg.Config.use_sack then begin
    Sack_scoreboard.advance_una t.scoreboard (una t);
    let blocks =
      List.map
        (fun (a, b) -> (offset_of_seq t a, offset_of_seq t b))
        header.Proto.Tcp_header.sack_blocks
    in
    if blocks <> [] then
      Sack_scoreboard.record t.scoreboard ~blocks ~una:(una t)
  end;
  (match ph t with
  | Fast_recovery ->
      if una t >= recover t then begin
        (* Full acknowledgment: deflate and resume avoidance. *)
        set_cwnd_b t (Float.max floor (ssthresh_b t));
        set_ph t Cong_avoid_p;
        Interval_set.remove_below t.retx_done max_int
      end
      else if t.cfg.Config.use_sack then sack_recovery_send t
      else begin
        (* NewReno partial ACK: next hole is also lost. *)
        let hole_hi = Stdlib.min (una t + mss) (nxt t) in
        retransmit t (una t, hole_hi);
        set_cwnd_b t
          (Float.max floor
             (cwnd_b t -. float_of_int newly +. float_of_int mss));
        arm_rto t
      end
  | Slow_start_p ->
      t.slow_start_acks <- t.slow_start_acks + 1;
      let decision =
        t.ss.Slow_start.on_ack (view t) ~newly_acked:newly ~rtt_sample
      in
      set_cwnd_b t
        (Float.max floor (cwnd_b t +. decision.Slow_start.cwnd_delta));
      if decision.Slow_start.exit_slow_start then begin
        set_ssthresh_b t (cwnd_b t);
        set_ph t Cong_avoid_p
      end
      else if cwnd_b t >= ssthresh_b t then set_ph t Cong_avoid_p
  | Cong_avoid_p ->
      t.cong_avoid_acks <- t.cong_avoid_acks + 1;
      Flow_table.ca_on_ack t.table t.row t.cc ~newly_acked:newly ~mss
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
  let prev_rwnd = rwnd t in
  set_rwnd t (Stdlib.max 0 header.Proto.Tcp_header.wnd);
  t.gauges.max_rwin_rcvd <-
    Float.max t.gauges.max_rwin_rcvd (float_of_int (rwnd t));
  (* ECN echo: same once-per-window multiplicative decrease as a loss,
     but nothing needs retransmitting (RFC 3168 §6.1.2). *)
  if
    Proto.Tcp_header.has_flag header Proto.Tcp_header.Ece
    && ph t <> Syn_sent && ph t <> Fast_recovery
    && una t >= reaction_mark t
  then begin
    set_reaction_mark t (nxt t);
    t.congestion_signals <- t.congestion_signals + 1;
    Flow_table.ca_on_loss t.table t.row t.cc ~flight:(flight_bytes t)
      ~mss:t.cfg.Config.mss ~now;
    if ph t = Slow_start_p then set_ph t Cong_avoid_p;
    set_cwr_pending t true
  end;
  if ph t = Syn_sent then begin
    if Proto.Tcp_header.has_flag header Proto.Tcp_header.Syn then begin
      (* SYN/ACK: connection established. *)
      take_sample ();
      cancel_rto t;
      Rtt_estimator.reset_backoff t.rtt;
      set_ph t Slow_start_p;
      set_cwnd_b t
        (float_of_int (t.cfg.Config.init_cwnd_segments * t.cfg.Config.mss));
      update_gauges t;
      try_send t
    end
  end
  else begin
    let ack_off = offset_of_seq t header.Proto.Tcp_header.ack in
    if ack_off > una t && ack_off <= una t + (1 lsl 30) then begin
      take_sample ();
      (* An ACK above snd_nxt is possible after go-back-N regressed
         snd_nxt: the receiver is acknowledging pre-timeout data. The
         data exists; resynchronize snd_nxt instead of dropping the
         ACK (which would deadlock the connection). *)
      if ack_off > nxt t then set_nxt t ack_off;
      let newly = ack_off - una t in
      set_una t ack_off;
      if una t >= reaction_mark t then set_reaction_mark t (una t);
      on_new_ack t ~newly ~rtt_sample header
    end
    else if
      ack_off = una t && nxt t > una t
      && header.Proto.Tcp_header.payload_len = 0
    then
      if rwnd t = prev_rwnd then on_dupack t header
      else
        (* Same ACK point but a changed window: a window update, not a
           duplicate (RFC 5681 §2). The reopened window may unblock us. *)
        try_send t
    else if rwnd t > prev_rwnd then try_send t
  end;
  update_gauges t

let handle_packet t pkt =
  match pkt.Netsim.Packet.payload with
  | Proto.Payload.Tcp header when header.Proto.Tcp_header.is_ack ->
      handle_ack t header
  | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> ()

(* --- construction ------------------------------------------------------ *)

let create ~host ~dst ~flow ~ids ?table ?(config = Config.default)
    ?(slow_start = Slow_start.standard ()) ?(cong_avoid = Cong_avoid.reno ())
    () =
  let sched = Netsim.Host.scheduler host in
  let table =
    match table with
    | Some tbl -> tbl
    | None -> Flow_table.create ~initial_capacity:1 ()
  in
  let row = Flow_table.alloc table in
  let t =
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
      table;
      row;
      total = None;
      rto_handle = None;
      rto_cb = ignore;
      pace_cb = ignore;
      pending_retx = None;
      complete_cbs = [];
      pace_timer = None;
      tracer = None;
      last_traced_cwnd = nan;
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
    }
  in
  t.rto_cb <- (fun () -> on_rto t);
  t.pace_cb <-
    (fun () ->
      t.pace_timer <- None;
      try_send t);
  set_cwnd_b t
    (float_of_int (config.Config.init_cwnd_segments * config.Config.mss));
  set_ssthresh_b t config.Config.init_ssthresh;
  set_rwnd t config.Config.rcv_wnd;
  set_ph t Syn_sent;
  Netsim.Host.register_flow host ~flow (fun pkt -> handle_packet t pkt);
  Netsim.Ifq.on_space (Netsim.Host.ifq host) (fun () ->
      if stalled t then begin
        set_stalled t false;
        try_send t
      end);
  t

let start t ?bytes () =
  if started t then invalid_arg "Sender.start: already started";
  set_started t true;
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
      set_completed t false;
      if started t then try_send t

let on_complete t cb = t.complete_cbs <- cb :: t.complete_cbs

(* --- accessors --------------------------------------------------------- *)

let phase t = ph t
let cwnd t = cwnd_b t
let ssthresh t = ssthresh_b t
let flight t = flight_bytes t
let bytes_acked t = una t
let bytes_sent t = bytes_sent_total t
let srtt t = Rtt_estimator.srtt t.rtt
let min_rtt t = Rtt_estimator.min_rtt t.rtt
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
let flow_table t = t.table
let row t = t.row
