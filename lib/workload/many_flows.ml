(* Flow-level (per-RTT-round) engine for very large flow counts.

   Packet-level simulation carries a per-packet event cost that caps
   practical scale around thousands of flows; this engine drops to the
   abstraction the mean-field literature analyses (Reynier: N AIMD
   windows coupled through one fluid RED queue) so a million concurrent
   flows fit in a {!Tcp.Flow_table} and advance through a
   {!Sim.Timer_wheel} with O(1) allocation-free timer churn:

   - Per-flow state is a Flow_table row: cwnd/ssthresh driven through
     the {!Tcp.Cong_avoid} policy hooks by index, a budget column for
     finite transfer sizes, a per-row xorshift stream for loss draws
     and the row's round-timer handle. No per-flow closure exists
     anywhere: all rounds dispatch through the engine's single
     [on_fire] callback.

   - The bottleneck is a fluid integrator: between events the backlog
     changes at (Σcwnd/RTT − C), clamped to [0, buffer]; RTT is the
     base RTT plus q/C. Loss is Bernoulli per round with per-packet
     probability taken from the shared RED curve
     ({!Netsim.Queue_disc.red_drop_probability}) over a line-rate EWMA
     of the queue, or from the tail-drop overflow fraction when RED is
     off — so a round of W bytes survives with (1−p)^(W/mss).

   - Each flow's round timer re-arms every RTT: slow start doubles the
     window per round until ssthresh, congestion avoidance makes one
     call to the policy's per-round rule (on_round: the round's W/mss
     per-ACK steps folded over an unboxed float, bit-identical to
     applying on_ack once per packet), and a lost round applies
     on_loss and drops to avoidance. Every row shares one controller,
     so only avoidances whose per-ACK rule keeps no state — exactly
     those with an on_round — are accepted.

   Everything is deterministic for a fixed seed: arrivals and sizes
   come from one dedicated stream, loss draws from per-row streams
   derived from the engine seed, and the wheel fires FIFO within a
   tick. *)

module Ft = Tcp.Flow_table
module Wheel = Sim.Timer_wheel

type params = {
  flows : int;
  arrival_rate : float option;
      (* flows/s; None = all present at start *)
  arrival_pareto_shape : float option;
      (* heavy-tailed inter-arrival gaps; None = exponential *)
  mean_size : int option; (* bytes per flow; None = persistent *)
  size_pareto_shape : float;
  mss : int;
  init_cwnd_segments : int;
  capacity_bytes_per_sec : float;
  base_rtt : Sim.Time.t;
  buffer_packets : int;
  red : Netsim.Queue_disc.red_params option;
}

let kind_round = 0
let kind_arrival = 1

type t = {
  sched : Sim.Scheduler.t;
  wheel : Wheel.t;
  table : Ft.t;
  cc : Tcp.Cong_avoid.t;
  p : params;
  seed : int;
  rng : Sim.Rng.t; (* arrivals + sizes only *)
  mutable q_bytes : float;
  mutable avg_pkts : float; (* RED's EWMA of the queue, packets *)
  mutable last_update_ns : int;
  mutable sum_cwnd : float; (* bytes across active flows *)
  mutable active : int;
  mutable created : int;
  mutable completed : int;
  mutable delivered : float; (* goodput bytes across all flows *)
  mutable loss_events : int;
  mutable stopped : bool;
}

let mssf t = float_of_int t.p.mss
let buffer_bytes t = float_of_int t.p.buffer_packets *. mssf t

(* Serialization time of one mss packet — RED's idle-decay clock. *)
let pkt_time t = mssf t /. t.p.capacity_bytes_per_sec

let rtt_s t =
  Sim.Time.to_sec t.p.base_rtt +. (t.q_bytes /. t.p.capacity_bytes_per_sec)

(* Fluid integration of the backlog since the last event, then the
   line-rate EWMA the RED curve reads. One multiply-adds per event, no
   allocation. *)
let update_queue t ~now_ns =
  let dt = float_of_int (now_ns - t.last_update_ns) *. 1e-9 in
  if dt > 0. then begin
    let inflow = t.sum_cwnd /. rtt_s t in
    let q = t.q_bytes +. ((inflow -. t.p.capacity_bytes_per_sec) *. dt) in
    let q = if q < 0. then 0. else q in
    let cap = buffer_bytes t in
    t.q_bytes <- (if q > cap then cap else q);
    (match t.p.red with
    | None -> ()
    | Some rp ->
        (* Apply the per-packet weight once per line-rate arrival
           elapsed: avg ← q + (avg−q)·(1−w)^(dt/pkt_time). *)
        let m = dt /. pkt_time t in
        let keep = (1. -. rp.Netsim.Queue_disc.weight) ** m in
        let q_pkts = t.q_bytes /. mssf t in
        t.avg_pkts <- q_pkts +. ((t.avg_pkts -. q_pkts) *. keep));
    t.last_update_ns <- now_ns
  end

(* Per-packet drop/mark probability the flows currently face. Tail
   drop in fluid form: once the buffer is full the queue sheds exactly
   the excess arrival rate. It compounds with RED's early drops — in
   overload RED alone may not shed enough (its curve tops out against
   a clamped average), and without the overflow term delivered bytes
   would exceed the link capacity. *)
let drop_probability t =
  let overflow =
    if t.q_bytes >= buffer_bytes t -. (0.5 *. mssf t) then
      let inflow = t.sum_cwnd /. rtt_s t in
      if inflow <= t.p.capacity_bytes_per_sec then 0.
      else (inflow -. t.p.capacity_bytes_per_sec) /. inflow
    else 0.
  in
  match t.p.red with
  | None -> overflow
  | Some rp ->
      let early = Netsim.Queue_disc.red_drop_probability rp ~avg:t.avg_pkts in
      1. -. ((1. -. early) *. (1. -. overflow))

let phase_slow_start = 1
let phase_cong_avoid = 2

let arm_round t row =
  let now_ns = Sim.Time.to_ns_int (Sim.Scheduler.now t.sched) in
  let due_ns = now_ns + int_of_float (rtt_s t *. 1e9) in
  Ft.set_timer t.table row (Wheel.arm t.wheel ~due_ns ~kind:kind_round ~flow:row :> int)

let retire t row =
  t.sum_cwnd <- t.sum_cwnd -. Ft.cwnd t.table row;
  t.active <- t.active - 1;
  t.completed <- t.completed + 1;
  Ft.free t.table row

let launch t =
  let row = Ft.alloc t.table in
  let idx = t.created in
  t.created <- idx + 1;
  t.active <- t.active + 1;
  let cwnd = float_of_int (t.p.init_cwnd_segments * t.p.mss) in
  Ft.set_cwnd t.table row cwnd;
  Ft.set_ssthresh t.table row infinity;
  Ft.set_phase t.table row phase_slow_start;
  (* Loss draws come from the row's own stream so one flow's history
     never perturbs another's. Stream ids sit far above the 0x5F10+i
     and 0xFA1/0xFA2 ranges Core.Spec reserves. *)
  Ft.seed_rng t.table row
    (Sim.Rng.derive_seed ~root:t.seed ~stream:(0x6D0000 + idx));
  (let size =
     match t.p.mean_size with
     | None -> -1
     | Some mean ->
         let shape = t.p.size_pareto_shape in
         let scale = float_of_int mean *. (shape -. 1.) /. shape in
         Stdlib.max 1 (int_of_float (Sim.Rng.pareto t.rng ~shape ~scale))
   in
   Ft.set_budget t.table row size);
  t.sum_cwnd <- t.sum_cwnd +. cwnd;
  arm_round t row

let schedule_arrival t =
  if t.created < t.p.flows && not t.stopped then
    match t.p.arrival_rate with
    | None -> ()
    | Some rate ->
        let mean = 1. /. rate in
        let gap =
          match t.p.arrival_pareto_shape with
          | None -> Sim.Rng.exponential t.rng ~mean
          | Some shape ->
              let scale = mean *. (shape -. 1.) /. shape in
              Sim.Rng.pareto t.rng ~shape ~scale
        in
        let now_ns = Sim.Time.to_ns_int (Sim.Scheduler.now t.sched) in
        ignore
          (Wheel.arm t.wheel
             ~due_ns:(now_ns + int_of_float (gap *. 1e9))
             ~kind:kind_arrival ~flow:0)

(* One RTT round of flow [row]: Bernoulli loss over the W/mss packets
   of the round, then the policy's growth or decrease, delivered-byte
   accounting, and re-arm — all through table columns, no closure. *)
let round t row =
  let now = Sim.Scheduler.now t.sched in
  let w = Ft.cwnd t.table row in
  let p = drop_probability t in
  let pkts = w /. mssf t in
  let p_round = 1. -. ((1. -. p) ** pkts) in
  let lost = p_round > 0. && Ft.rng_float t.table row < p_round in
  if lost then begin
    t.loss_events <- t.loss_events + 1;
    Ft.ca_on_loss t.table row t.cc ~flight:(int_of_float w) ~mss:t.p.mss ~now;
    Ft.set_phase t.table row phase_cong_avoid
  end
  else if Ft.phase t.table row = phase_slow_start then begin
    (* Every byte of the round acked: the window doubles. *)
    let next = w *. 2. in
    let ss = Ft.ssthresh t.table row in
    if next >= ss then begin
      Ft.set_cwnd t.table row ss;
      Ft.set_phase t.table row phase_cong_avoid
    end
    else Ft.set_cwnd t.table row next
  end
  else
    (* A loss-free round acks every packet of the window: one call to
       the policy's per-round rule applies that many per-ACK steps
       (Reno adds mss²/cwnd per segment), bit-identical to a
       packet-level sender's ~1 mss/RTT growth in avoidance. *)
    Ft.ca_on_round t.table row t.cc
      ~acks:(Stdlib.max 1 (int_of_float pkts))
      ~mss:t.p.mss
      ~srtt:(Sim.Time.of_sec (rtt_s t));
  (* Goodput: the surviving fraction of the round's bytes. *)
  let got = w *. (1. -. p) in
  t.delivered <- t.delivered +. got;
  let done_ =
    let b = Ft.budget t.table row in
    b >= 0
    &&
    let b' = b - int_of_float got in
    Ft.set_budget t.table row (Stdlib.max 0 b');
    b' <= 0
  in
  if done_ then retire t row
  else begin
    t.sum_cwnd <- t.sum_cwnd +. (Ft.cwnd t.table row -. w);
    arm_round t row
  end

let on_fire t ~kind ~flow =
  update_queue t ~now_ns:(Sim.Time.to_ns_int (Sim.Scheduler.now t.sched));
  if kind = kind_arrival then begin
    if t.created < t.p.flows && not t.stopped then begin
      launch t;
      schedule_arrival t
    end
  end
  else if Ft.is_live t.table flow then round t flow

let default_params =
  {
    flows = 1000;
    arrival_rate = None;
    arrival_pareto_shape = None;
    mean_size = None;
    size_pareto_shape = 1.2;
    mss = 1500;
    init_cwnd_segments = 2;
    capacity_bytes_per_sec = 100e6 /. 8.;
    base_rtt = Sim.Time.ms 60;
    buffer_packets = 250;
    red = None;
  }

let cong_avoid_error (cc : Tcp.Cong_avoid.t) =
  match cc.Tcp.Cong_avoid.on_round with
  | Some _ -> None
  | None ->
      Some
        (Printf.sprintf
           "congestion avoidance %S keeps per-connection state, but every \
            many-flows row shares one controller (use reno, relentless or \
            small-rtt)"
           cc.Tcp.Cong_avoid.name)

let start ~sched ~rng ~seed ?(cong_avoid = Tcp.Cong_avoid.reno ()) params =
  Option.iter
    (fun e -> invalid_arg ("Many_flows.start: " ^ e))
    (cong_avoid_error cong_avoid);
  if params.flows <= 0 then
    invalid_arg "Many_flows.start: need a positive flow count";
  if params.capacity_bytes_per_sec <= 0. then
    invalid_arg "Many_flows.start: need a positive capacity";
  if params.mss <= 0 then invalid_arg "Many_flows.start: need a positive mss";
  if params.init_cwnd_segments <= 0 then
    invalid_arg "Many_flows.start: need a positive initial window";
  if params.buffer_packets < 1 then
    invalid_arg "Many_flows.start: need at least one buffer packet";
  if not (Sim.Time.is_positive params.base_rtt) then
    invalid_arg "Many_flows.start: need a positive base RTT";
  (match params.arrival_rate with
  | Some r when r <= 0. ->
      invalid_arg "Many_flows.start: arrival_rate must be positive"
  | _ -> ());
  (match params.arrival_pareto_shape with
  | Some s when s <= 1. ->
      invalid_arg
        "Many_flows.start: arrival_pareto_shape must exceed 1 (shape <= 1 \
         has an infinite mean inter-arrival gap)"
  | _ -> ());
  (match params.mean_size with
  | Some m when m <= 0 ->
      invalid_arg "Many_flows.start: mean_size must be positive"
  | _ -> ());
  if params.mean_size <> None && params.size_pareto_shape <= 1. then
    invalid_arg
      "Many_flows.start: size_pareto_shape must exceed 1 (shape <= 1 has an \
       infinite mean flow size)";
  let rec t =
    lazy
      {
        sched;
        wheel =
          Wheel.create
            ~initial_capacity:(Stdlib.min 65536 (Stdlib.max 16 params.flows))
            ~on_fire:(fun ~kind ~flow -> on_fire (Lazy.force t) ~kind ~flow)
            ();
        table = Ft.create ~initial_capacity:(Stdlib.max 16 params.flows) ();
        cc = cong_avoid;
        p = params;
        seed;
        rng;
        q_bytes = 0.;
        avg_pkts = 0.;
        last_update_ns = Sim.Time.to_ns_int (Sim.Scheduler.now sched);
        sum_cwnd = 0.;
        active = 0;
        created = 0;
        completed = 0;
        delivered = 0.;
        loss_events = 0;
        stopped = false;
      }
  in
  let t = Lazy.force t in
  Sim.Scheduler.attach_wheel sched t.wheel;
  (match params.arrival_rate with
  | None -> for _ = 1 to params.flows do launch t done
  | Some _ -> schedule_arrival t);
  t

let stop t = t.stopped <- true

(* --- snapshot ----------------------------------------------------------- *)

(* The engine's whole dynamic state: fluid-queue scalars, counters, the
   arrivals stream position, every flow-table column and every pending
   wheel timer. Deliberately *not* integrated to the snapshot time —
   [update_queue] advances the fluid backlog from [last_update_ns] using
   the RTT at that instant, so integrating here (as [poll] would) splits
   one integration interval in two and diverges from an unbroken run.
   Raw state + the saved [last_update_ns] replays identically. *)

let save ?(prefix = "mf.") t w =
  let p name = prefix ^ name in
  Sim.Snapshot.put_float w (p "q_bytes") t.q_bytes;
  Sim.Snapshot.put_float w (p "avg_pkts") t.avg_pkts;
  Sim.Snapshot.put_float w (p "sum_cwnd") t.sum_cwnd;
  Sim.Snapshot.put_float w (p "delivered") t.delivered;
  Sim.Snapshot.put_int w (p "last_update_ns") t.last_update_ns;
  Sim.Snapshot.put_int w (p "active") t.active;
  Sim.Snapshot.put_int w (p "created") t.created;
  Sim.Snapshot.put_int w (p "completed") t.completed;
  Sim.Snapshot.put_int w (p "loss_events") t.loss_events;
  Sim.Snapshot.put_int w (p "stopped") (if t.stopped then 1 else 0);
  Sim.Snapshot.put_i64 w (p "rng_state") (Sim.Rng.state t.rng);
  let n = Wheel.pending t.wheel in
  let due = Array.make n 0
  and kinds = Array.make n 0
  and flows = Array.make n 0 in
  let i = ref 0 in
  Wheel.iter_pending t.wheel ~f:(fun ~due_ns ~kind ~flow ->
      due.(!i) <- due_ns;
      kinds.(!i) <- kind;
      flows.(!i) <- flow;
      incr i);
  Sim.Snapshot.put_int w (p "wheel_tick") (Wheel.now_tick t.wheel);
  Sim.Snapshot.put_int_array w (p "wheel_due_ns") due;
  Sim.Snapshot.put_int_array w (p "wheel_kind") kinds;
  Sim.Snapshot.put_int_array w (p "wheel_flow") flows;
  Ft.save t.table ~prefix:(p "ft.") w

(* Restore into a freshly-[start]ed engine built from the same params
   and seed. The wheel is drained, advanced (empty, so nothing fires)
   to the saved tick, and re-armed in serialization order — which
   rebuilds every slot's FIFO list, and therefore the firing order,
   exactly. Round timers write their fresh handle back into the row;
   handle values never influence simulation output (the engine stores
   but never cancels them). *)
let restore ?(prefix = "mf.") t r =
  let p name = prefix ^ name in
  t.q_bytes <- Sim.Snapshot.get_float r (p "q_bytes");
  t.avg_pkts <- Sim.Snapshot.get_float r (p "avg_pkts");
  t.sum_cwnd <- Sim.Snapshot.get_float r (p "sum_cwnd");
  t.delivered <- Sim.Snapshot.get_float r (p "delivered");
  t.last_update_ns <- Sim.Snapshot.get_int r (p "last_update_ns");
  t.active <- Sim.Snapshot.get_int r (p "active");
  t.created <- Sim.Snapshot.get_int r (p "created");
  t.completed <- Sim.Snapshot.get_int r (p "completed");
  t.loss_events <- Sim.Snapshot.get_int r (p "loss_events");
  t.stopped <- Sim.Snapshot.get_int r (p "stopped") <> 0;
  Sim.Rng.set_state t.rng (Sim.Snapshot.get_i64 r (p "rng_state"));
  Ft.restore t.table ~prefix:(p "ft.") r;
  Wheel.drain t.wheel;
  let tick = Sim.Snapshot.get_int r (p "wheel_tick") in
  Wheel.advance t.wheel ~now_ns:(tick * Wheel.tick_ns t.wheel);
  let due = Sim.Snapshot.get_int_array r (p "wheel_due_ns") in
  let kinds = Sim.Snapshot.get_int_array r (p "wheel_kind") in
  let flows = Sim.Snapshot.get_int_array r (p "wheel_flow") in
  if Array.length kinds <> Array.length due || Array.length flows <> Array.length due
  then raise (Sim.Snapshot.Corrupt "Many_flows: ragged wheel sections");
  Array.iteri
    (fun i due_ns ->
      let h =
        (Wheel.arm t.wheel ~due_ns ~kind:kinds.(i) ~flow:flows.(i) :> int)
      in
      if kinds.(i) = kind_round then Ft.set_timer t.table flows.(i) h)
    due

(* --- observation -------------------------------------------------------- *)

let poll t =
  update_queue t ~now_ns:(Sim.Time.to_ns_int (Sim.Scheduler.now t.sched))

let queue_packets t =
  poll t;
  t.q_bytes /. mssf t

let avg_queue_packets t =
  poll t;
  match t.p.red with Some _ -> t.avg_pkts | None -> t.q_bytes /. mssf t

let sum_cwnd_bytes t = t.sum_cwnd

let mean_cwnd_segments t =
  if t.active = 0 then 0.
  else t.sum_cwnd /. mssf t /. float_of_int t.active

let active t = t.active
let created t = t.created
let completed t = t.completed
let delivered_bytes t = t.delivered
let loss_events t = t.loss_events
let table t = t.table
let wheel t = t.wheel

let goodput_mbps t ~duration =
  let s = Sim.Time.to_sec duration in
  if s <= 0. then 0. else t.delivered *. 8. /. s /. 1e6
