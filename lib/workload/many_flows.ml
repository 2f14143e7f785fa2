(* Flow-level (per-RTT-round) engine for very large flow counts.

   Packet-level simulation carries a per-packet event cost that caps
   practical scale around thousands of flows; this engine drops to the
   abstraction the mean-field literature analyses (Reynier: N AIMD
   windows coupled through one fluid RED queue) so a million concurrent
   flows fit in a {!Tcp.Flow_table} and advance through a
   {!Sim.Timer_wheel} with O(1) allocation-free timer churn:

   - Per-flow state is a Flow_table row: cwnd/ssthresh, which the
     rounds update through the shared {!Tcp.Cong_avoid} rules, a budget
     column for finite transfer sizes, a per-row xorshift stream for
     loss draws, the phase, and the row's link in its round cohort
     (below). No per-flow closure exists anywhere: all rounds
     dispatch through the engine's single [on_fire] callback.

   - A round allocates nothing. It reads and writes the table's columns
     in place (the table's record type is private, but its arrays are
     plain arrays), turns the row's xorshift int into its uniform draw
     here, and hands the policy the window column and the row, so no
     float, tuple or option crosses a module boundary per round. The
     floats the rounds share live in one all-float record, refreshed
     once per instant.

   - The bottleneck is a fluid integrator: between events the backlog
     changes at (Σcwnd/RTT − C), clamped to [0, buffer]; RTT is the
     base RTT plus q/C. Loss is Bernoulli per round with per-packet
     probability taken from the shared RED curve
     ({!Netsim.Queue_disc.red_drop_probability}) over a line-rate EWMA
     of the queue, or from the tail-drop overflow fraction when RED is
     off — so a round of W bytes survives with (1−p)^(W/mss).

   - Each flow's round re-arms every RTT: slow start doubles the
     window per round until ssthresh, congestion avoidance applies the
     policy's per-round fold in place (on_round.fold: the round's W/mss
     per-ACK steps over an unboxed float, bit-identical to applying
     on_ack once per packet), and a lost round applies its in-place cut
     (on_loss's window, which is also its ssthresh) and drops to
     avoidance. Every row shares one controller, so only avoidances
     whose per-ACK rule keeps no state — exactly those with an
     on_round — are accepted.

   - A round is two halves around its fold: [decide] (the loss draw,
     the cut or the doubling, delivered bytes and the budget; an
     avoidance round queues its fold) and [settle] (the window sum,
     then retire or re-arm). A cohort runs in chunks of up to 128 rows:
     every row's [decide] in link order, one [fold] call that steps
     four rows abreast so the divider overlaps their divisions, every
     row's [settle] in link order. No row's fold reads another row's
     inputs, so the result is bit-identical to one row at a time as
     long as the drop probability is one value for the chunk; at the
     overflow threshold, where it is not, the rows run one at a time.

   - Round timers are per cohort, not per row. The rows re-armed back
     to back at one instant share one due time (the RTT only moves
     when the fluid queue is integrated, which happens once per
     instant), so the wheel holds one timer for them: it carries the
     cohort's first row, and each row's Flow_table [timer] column links
     to the next row (−1 ends the cohort). A row joins the open cohort
     only for the same due time, while no other timer has been armed
     on the wheel since and the cohort has not fired. A per-row wheel
     keeps timers with one due tick in one slot in arm order, so it
     would hold exactly these rows there, consecutively: firing the
     cohort in link order is the per-row firing order.
     [Timer_wheel.pending] counts cohorts plus the pending arrival;
     snapshots expand each cohort into the per-row entries.

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

(* The engine's float state, in one all-float record: OCaml stores it
   flat, so updating a field writes a double in place, where a mutable
   float field of the mixed record [t] would box a fresh one on every
   write. [rtt_s] and [early] are functions of the queue state, cached
   where it changes ([refresh]); the memo holds the last round's
   survival probability, keyed on its exact inputs. *)
type totals = {
  base_rtt_s : float; (* params.base_rtt, converted once *)
  mutable q_bytes : float;
  mutable avg_pkts : float; (* RED's EWMA of the queue, packets *)
  mutable sum_cwnd : float; (* bytes across active flows *)
  mutable delivered : float; (* goodput bytes across all flows *)
  mutable rtt_s : float; (* base RTT + q/C *)
  mutable early : float; (* RED early-drop probability at avg_pkts *)
  mutable memo_p : float;
  mutable memo_pkts : float;
  mutable memo_keep : float; (* (1 − memo_p)^memo_pkts *)
}

(* Rows between [decide] and [settle], preallocated at [chunk_rows].
   Slot [i] of [rows], [w0] and [retiring] holds the [i]th row of a
   chunk in link order; the first [n_fold] slots of [fold_rows] and
   [fold_acks] queue the avoidance rows for one [fold] call. *)
type chunk = {
  rows : int array;
  w0 : float array; (* the window before the round *)
  retiring : bool array; (* the round drained the row's budget *)
  fold_rows : int array;
  fold_acks : int array;
  mutable n_fold : int;
}

let chunk_rows = 128

type t = {
  sched : Sim.Scheduler.t;
  wheel : Wheel.t;
  table : Ft.t;
  round : Tcp.Cong_avoid.round;
      (* the controller's in-place per-round rule; [start] refuses
         controllers without one *)
  p : params;
  seed : int;
  rng : Sim.Rng.t; (* arrivals + sizes only *)
  f : totals;
  c : chunk;
  mutable srtt : Sim.Time.t; (* f.rtt_s, for the per-round rule *)
  mutable last_update_ns : int;
  mutable active : int;
  mutable created : int;
  mutable completed : int;
  mutable loss_events : int;
  (* The open cohort: the one rows may still join. *)
  mutable open_head : int; (* its wheel timer's row; -1 = none open *)
  mutable open_tail : int;
  mutable open_due_ns : int;
}

let mssf t = float_of_int t.p.mss
let buffer_bytes t = float_of_int t.p.buffer_packets *. mssf t

(* Serialization time of one mss packet — RED's idle-decay clock. *)
let pkt_time t = mssf t /. t.p.capacity_bytes_per_sec

(* Re-derive the cached functions of the queue state. *)
let refresh t =
  let f = t.f in
  f.rtt_s <- f.base_rtt_s +. (f.q_bytes /. t.p.capacity_bytes_per_sec);
  t.srtt <- Sim.Time.of_sec f.rtt_s;
  match t.p.red with
  | None -> ()
  | Some rp -> f.early <- Netsim.Queue_disc.red_drop_probability rp ~avg:f.avg_pkts

(* Fluid integration of the backlog since the last event, then the
   line-rate EWMA the RED curve reads: a few multiply-adds, once per
   instant. *)
let update_queue t ~now_ns =
  let dt = float_of_int (now_ns - t.last_update_ns) *. 1e-9 in
  if dt > 0. then begin
    let f = t.f in
    let inflow = f.sum_cwnd /. f.rtt_s in
    let q = f.q_bytes +. ((inflow -. t.p.capacity_bytes_per_sec) *. dt) in
    let q = if q < 0. then 0. else q in
    let cap = buffer_bytes t in
    f.q_bytes <- (if q > cap then cap else q);
    (match t.p.red with
    | None -> ()
    | Some rp ->
        (* Apply the per-packet weight once per line-rate arrival
           elapsed: avg ← q + (avg−q)·(1−w)^(dt/pkt_time). *)
        let m = dt /. pkt_time t in
        let keep = (1. -. rp.Netsim.Queue_disc.weight) ** m in
        let q_pkts = f.q_bytes /. mssf t in
        f.avg_pkts <- q_pkts +. ((f.avg_pkts -. q_pkts) *. keep));
    refresh t;
    t.last_update_ns <- now_ns
  end

(* Whether the fluid buffer is full to within half a packet. *)
let[@inline] overflowing t = t.f.q_bytes >= buffer_bytes t -. (0.5 *. mssf t)

(* Per-packet drop/mark probability the flows currently face. Tail
   drop in fluid form: once the buffer is full the queue sheds exactly
   the excess arrival rate. It compounds with RED's early drops — in
   overload RED alone may not shed enough (its curve tops out against
   a clamped average), and without the overflow term delivered bytes
   would exceed the link capacity. *)
let[@inline] drop_probability t =
  let f = t.f in
  let overflow =
    if overflowing t then
      let inflow = f.sum_cwnd /. f.rtt_s in
      if inflow <= t.p.capacity_bytes_per_sec then 0.
      else (inflow -. t.p.capacity_bytes_per_sec) /. inflow
    else 0.
  in
  match t.p.red with
  | None -> overflow
  | Some _ -> 1. -. ((1. -. f.early) *. (1. -. overflow))

(* (1−p)^pkts, memoised on its exact inputs: flows in lockstep see the
   same p and window, so most rounds skip the [**]. *)
let[@inline] survival f p pkts =
  if p = f.memo_p && pkts = f.memo_pkts then f.memo_keep
  else begin
    let keep = (1. -. p) ** pkts in
    f.memo_p <- p;
    f.memo_pkts <- pkts;
    f.memo_keep <- keep;
    keep
  end

let phase_slow_start = 1
let phase_cong_avoid = 2

(* Arm [row]'s next round: append it to the open cohort when that is
   indistinguishable from a per-row timer, else arm a wheel timer for a
   new cohort headed by [row]. *)
let arm_round t row ~now_ns =
  let due_ns = now_ns + int_of_float (t.f.rtt_s *. 1e9) in
  let link = t.table.Ft.timer in
  Array.unsafe_set link row (-1);
  if t.open_head >= 0 && t.open_due_ns = due_ns then
    Array.unsafe_set link t.open_tail row
  else begin
    ignore (Wheel.arm t.wheel ~due_ns ~kind:kind_round ~flow:row);
    t.open_head <- row;
    t.open_due_ns <- due_ns
  end;
  t.open_tail <- row

let retire t row =
  t.f.sum_cwnd <- t.f.sum_cwnd -. Array.unsafe_get t.table.Ft.cwnd row;
  t.active <- t.active - 1;
  t.completed <- t.completed + 1;
  Ft.free t.table row

(* A new flow in a fresh row: ssthresh ∞ as [alloc] leaves it. [alloc]
   may grow the table, so the columns are read after it. *)
let launch t ~now_ns =
  let tbl = t.table in
  let row = Ft.alloc tbl in
  let idx = t.created in
  t.created <- idx + 1;
  t.active <- t.active + 1;
  let cwnd = float_of_int (t.p.init_cwnd_segments * t.p.mss) in
  tbl.Ft.cwnd.(row) <- cwnd;
  tbl.Ft.phase.(row) <- phase_slow_start;
  (* Loss draws come from the row's own stream so one flow's history
     never perturbs another's. Stream ids sit far above the 0x5F10+i
     and 0xFA1/0xFA2 ranges Core.Spec reserves. *)
  Ft.seed_rng tbl row
    (Sim.Rng.derive_seed ~root:t.seed ~stream:(0x6D0000 + idx));
  (match t.p.mean_size with
  | None -> ()
  | Some mean ->
      let shape = t.p.size_pareto_shape in
      let scale = float_of_int mean *. (shape -. 1.) /. shape in
      tbl.Ft.budget.(row) <-
        Int.max 1 (int_of_float (Sim.Rng.pareto t.rng ~shape ~scale)));
  t.f.sum_cwnd <- t.f.sum_cwnd +. cwnd;
  arm_round t row ~now_ns

let schedule_arrival t ~now_ns =
  if t.created < t.p.flows then
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
        (* Another timer on the wheel: rows armed after it must not
           join a cohort armed before it. *)
        t.open_head <- -1;
        ignore
          (Wheel.arm t.wheel
             ~due_ns:(now_ns + int_of_float (gap *. 1e9))
             ~kind:kind_arrival ~flow:0)

(* A uniform draw in [0,1) from [row]'s stream: the low 53 bits of its
   next xorshift word, scaled. The word crosses from the table as an
   int, so no float is boxed. *)
let[@inline] uniform tbl row =
  float_of_int (Ft.rng_next tbl row land ((1 lsl 53) - 1)) *. 0x1p-53

(* The first half of flow [row]'s RTT round from window [w]: Bernoulli
   loss over the round's W/mss packets at per-packet probability [p],
   then a lost round's cut or slow start's doubling, the delivered bytes
   and the budget — all in place on the table's columns, read afresh
   ([launch] may have grown the table since the last round). A loss-free
   avoidance round only queues its fold; [settle] finishes the round
   once the fold has run. Returns whether the round drained the row's
   budget. *)
let[@inline] decide t row ~w ~p =
  let f = t.f and tbl = t.table in
  let cwnd = tbl.Ft.cwnd and phase = tbl.Ft.phase in
  let pkts = w /. mssf t in
  let p_round = 1. -. survival f p pkts in
  let lost = p_round > 0. && uniform tbl row < p_round in
  if lost then begin
    t.loss_events <- t.loss_events + 1;
    t.round.Tcp.Cong_avoid.cut cwnd row ~mss:t.p.mss;
    (* [on_loss]'s ssthresh is the cut window, for every in-place rule. *)
    Array.unsafe_set tbl.Ft.ssthresh row (Array.unsafe_get cwnd row);
    Array.unsafe_set phase row phase_cong_avoid
  end
  else if Array.unsafe_get phase row = phase_slow_start then begin
    (* Every byte of the round acked: the window doubles. *)
    let next = w *. 2. in
    let ss = Array.unsafe_get tbl.Ft.ssthresh row in
    if next >= ss then begin
      Array.unsafe_set cwnd row ss;
      Array.unsafe_set phase row phase_cong_avoid
    end
    else Array.unsafe_set cwnd row next
  end
  else begin
    (* A loss-free round acks every packet of the window: the policy's
       fold applies that many per-ACK steps (Reno adds mss²/cwnd per
       segment), bit-identical to a packet-level sender's ~1 mss/RTT
       growth in avoidance. *)
    let c = t.c in
    let n = c.n_fold in
    Array.unsafe_set c.fold_rows n row;
    Array.unsafe_set c.fold_acks n (Int.max 1 (int_of_float pkts));
    c.n_fold <- n + 1
  end;
  (* Goodput: the surviving fraction of the round's bytes. *)
  let got = w *. (1. -. p) in
  f.delivered <- f.delivered +. got;
  let budget = tbl.Ft.budget in
  let b = Array.unsafe_get budget row in
  b >= 0
  &&
  let b' = b - int_of_float got in
  Array.unsafe_set budget row (Int.max 0 b');
  b' <= 0

let[@inline] fold_queued t =
  let c = t.c in
  if c.n_fold > 0 then begin
    t.round.Tcp.Cong_avoid.fold t.table.Ft.cwnd c.fold_rows c.fold_acks
      c.n_fold ~mss:t.p.mss ~srtt:t.srtt;
    c.n_fold <- 0
  end

(* The second half of [row]'s round, after its fold: the window sum
   takes the change from the pre-round window [w], and then the row
   retires or re-arms. The change counts before a retiring flow leaves:
   [retire] subtracts the post-round window. *)
let[@inline] settle t row ~w ~retiring ~now_ns =
  t.f.sum_cwnd <-
    t.f.sum_cwnd +. (Array.unsafe_get t.table.Ft.cwnd row -. w);
  if retiring then retire t row else arm_round t row ~now_ns

(* One row's whole round — [decide], its fold, [settle] — for instants
   at the overflow threshold, where a chunk cannot serve (see
   [fire_cohort]). A chunk of one row would be exact there too, but
   storing and reloading its scratch slot costs ~9 % of a million-flow
   round (EXPERIMENTS §MF). *)
let round t row ~now_ns =
  let w = Array.unsafe_get t.table.Ft.cwnd row in
  let retiring = decide t row ~w ~p:(drop_probability t) in
  fold_queued t;
  settle t row ~w ~retiring ~now_ns

(* A round timer fires its whole cohort, in link order. Each row's link
   is read before its round, which re-arms the row into a new cohort.
   Below the overflow threshold the cohort runs in chunks: every row's
   [decide], one [fold] of the chunk's avoidance rows, every row's
   [settle]; a chunk reads all its rows' links before it settles any.
   [decide], the window sum, [delivered] and the re-arms all keep link
   order, and no row's fold reads another's inputs, so a chunk ends
   bit-identical to its rows run one at a time, provided they all see
   one drop probability: below the threshold it reads only the queue,
   which [update_queue] moves once per instant. At or above it, the
   overflow term reads [sum_cwnd] after each earlier row's [settle], so
   there the rows run one [round] at a time. *)
let fire_cohort t first ~now_ns =
  let c = t.c and link = t.table.Ft.timer and cwnd = t.table.Ft.cwnd in
  let row = ref first in
  if overflowing t then
    while !row >= 0 do
      let r = !row in
      row := Array.unsafe_get link r;
      round t r ~now_ns
    done
  else begin
    let p = drop_probability t in
    while !row >= 0 do
      let n = ref 0 in
      while !row >= 0 && !n < chunk_rows do
        let r = !row and i = !n in
        row := Array.unsafe_get link r;
        let w = Array.unsafe_get cwnd r in
        Array.unsafe_set c.rows i r;
        Array.unsafe_set c.w0 i w;
        Array.unsafe_set c.retiring i (decide t r ~w ~p);
        n := i + 1
      done;
      fold_queued t;
      for i = 0 to !n - 1 do
        settle t (Array.unsafe_get c.rows i) ~w:(Array.unsafe_get c.w0 i)
          ~retiring:(Array.unsafe_get c.retiring i) ~now_ns
      done
    done
  end

let on_fire t ~kind ~flow =
  let now_ns = Sim.Time.to_ns_int (Sim.Scheduler.now t.sched) in
  update_queue t ~now_ns;
  if kind = kind_arrival then begin
    if t.created < t.p.flows then begin
      launch t ~now_ns;
      schedule_arrival t ~now_ns
    end
  end
  else begin
    if flow = t.open_head then t.open_head <- -1;
    fire_cohort t flow ~now_ns
  end

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
  let round = Option.get cong_avoid.Tcp.Cong_avoid.on_round in
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
            ~on_fire:(fun ~kind ~flow -> on_fire (Lazy.force t) ~kind ~flow)
            ();
        table =
          (* Sized to what the run holds: every flow at once when all
             launch now, else the table's default 16 rows, doubling as
             arrivals fill them up to the flow count. Rows come out in
             the same order either way (see [Tcp.Flow_table]), so only
             the table's footprint, and its snapshot, differ. *)
          (match params.arrival_rate with
          | None -> Ft.create ~initial_capacity:(Int.max 16 params.flows) ()
          | Some _ -> Ft.create ~max_capacity:params.flows ());
        round;
        p = params;
        seed;
        rng;
        f =
          {
            base_rtt_s = Sim.Time.to_sec params.base_rtt;
            q_bytes = 0.;
            avg_pkts = 0.;
            sum_cwnd = 0.;
            delivered = 0.;
            rtt_s = 0.;
            early = 0.;
            memo_p = nan;
            memo_pkts = nan;
            memo_keep = nan;
          };
        c =
          {
            rows = Array.make chunk_rows 0;
            w0 = Array.make chunk_rows 0.;
            retiring = Array.make chunk_rows false;
            fold_rows = Array.make chunk_rows 0;
            fold_acks = Array.make chunk_rows 0;
            n_fold = 0;
          };
        srtt = params.base_rtt;
        last_update_ns = Sim.Time.to_ns_int (Sim.Scheduler.now sched);
        active = 0;
        created = 0;
        completed = 0;
        loss_events = 0;
        open_head = -1;
        open_tail = -1;
        open_due_ns = 0;
      }
  in
  let t = Lazy.force t in
  refresh t;
  Sim.Scheduler.attach_wheel sched t.wheel;
  let now_ns = t.last_update_ns in
  (match params.arrival_rate with
  | None -> for _ = 1 to params.flows do launch t ~now_ns done
  | Some _ -> schedule_arrival t ~now_ns);
  t

(* --- snapshot ----------------------------------------------------------- *)

(* The engine's whole dynamic state: fluid-queue scalars, counters, the
   arrivals stream position, every flow-table column and every pending
   timer. Deliberately *not* integrated to the snapshot time —
   [update_queue] advances the fluid backlog from [last_update_ns] using
   the RTT at that instant, so integrating here (as [poll] would) splits
   one integration interval in two and diverges from an unbroken run.
   Raw state + the saved [last_update_ns] replays identically.

   The wheel sections list one (due, kind, row) entry per pending round,
   the entries a per-row wheel would list: each cohort expands, in link
   order, at its timer's place in wheel order. The image therefore does
   not depend on how rows were grouped. *)

let iter_entries t ~f =
  Wheel.iter_pending t.wheel ~f:(fun ~due_ns ~kind ~flow ->
      if kind = kind_round then begin
        let row = ref flow in
        while !row >= 0 do
          f ~due_ns ~kind ~flow:!row;
          row := t.table.Ft.timer.(!row)
        done
      end
      else f ~due_ns ~kind ~flow)

let save ?(prefix = "mf.") t w =
  let p name = prefix ^ name in
  Sim.Snapshot.put_float w (p "q_bytes") t.f.q_bytes;
  Sim.Snapshot.put_float w (p "avg_pkts") t.f.avg_pkts;
  Sim.Snapshot.put_float w (p "sum_cwnd") t.f.sum_cwnd;
  Sim.Snapshot.put_float w (p "delivered") t.f.delivered;
  Sim.Snapshot.put_int w (p "last_update_ns") t.last_update_ns;
  Sim.Snapshot.put_int w (p "active") t.active;
  Sim.Snapshot.put_int w (p "created") t.created;
  Sim.Snapshot.put_int w (p "completed") t.completed;
  Sim.Snapshot.put_int w (p "loss_events") t.loss_events;
  Sim.Snapshot.put_i64 w (p "rng_state") (Sim.Rng.state t.rng);
  let n = ref 0 in
  iter_entries t ~f:(fun ~due_ns:_ ~kind:_ ~flow:_ -> incr n);
  let due = Array.make !n 0
  and kinds = Array.make !n 0
  and flows = Array.make !n 0 in
  let i = ref 0 in
  iter_entries t ~f:(fun ~due_ns ~kind ~flow ->
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
   exactly. Consecutive round entries with one due time regroup into a
   cohort (a per-row wheel would hold them consecutively in one slot),
   which rewrites the [timer] link of every row with a pending round;
   an image whose [timer] column holds anything else (per-row wheel
   handles, say) restores the same. No cohort is left open. *)
let restore ?(prefix = "mf.") t r =
  let p name = prefix ^ name in
  t.f.q_bytes <- Sim.Snapshot.get_float r (p "q_bytes");
  t.f.avg_pkts <- Sim.Snapshot.get_float r (p "avg_pkts");
  t.f.sum_cwnd <- Sim.Snapshot.get_float r (p "sum_cwnd");
  t.f.delivered <- Sim.Snapshot.get_float r (p "delivered");
  t.last_update_ns <- Sim.Snapshot.get_int r (p "last_update_ns");
  t.active <- Sim.Snapshot.get_int r (p "active");
  t.created <- Sim.Snapshot.get_int r (p "created");
  t.completed <- Sim.Snapshot.get_int r (p "completed");
  t.loss_events <- Sim.Snapshot.get_int r (p "loss_events");
  Sim.Rng.set_state t.rng (Sim.Snapshot.get_i64 r (p "rng_state"));
  refresh t;
  Ft.restore t.table ~prefix:(p "ft.") r;
  Wheel.drain t.wheel;
  t.open_head <- -1;
  let tick = Sim.Snapshot.get_int r (p "wheel_tick") in
  Wheel.advance t.wheel ~now_ns:(tick * Wheel.tick_ns t.wheel);
  let due = Sim.Snapshot.get_int_array r (p "wheel_due_ns") in
  let kinds = Sim.Snapshot.get_int_array r (p "wheel_kind") in
  let flows = Sim.Snapshot.get_int_array r (p "wheel_flow") in
  if Array.length kinds <> Array.length due || Array.length flows <> Array.length due
  then raise (Sim.Snapshot.Corrupt "Many_flows: ragged wheel sections");
  let tail = ref (-1) in
  Array.iteri
    (fun i due_ns ->
      let kind = kinds.(i) and row = flows.(i) in
      if kind = kind_round then begin
        (* A repeated row would link to itself and fire forever. *)
        if row = !tail || not (Ft.is_live t.table row) then
          raise (Sim.Snapshot.Corrupt "Many_flows: bad round timer row");
        let link = t.table.Ft.timer in
        link.(row) <- -1;
        if !tail >= 0 && due.(i - 1) = due_ns then link.(!tail) <- row
        else ignore (Wheel.arm t.wheel ~due_ns ~kind ~flow:row);
        tail := row
      end
      else begin
        ignore (Wheel.arm t.wheel ~due_ns ~kind ~flow:row);
        tail := -1
      end)
    due

(* --- observation -------------------------------------------------------- *)

let poll t =
  update_queue t ~now_ns:(Sim.Time.to_ns_int (Sim.Scheduler.now t.sched))

let queue_packets t =
  poll t;
  t.f.q_bytes /. mssf t

let avg_queue_packets t =
  poll t;
  match t.p.red with Some _ -> t.f.avg_pkts | None -> t.f.q_bytes /. mssf t

let sum_cwnd_bytes t = t.f.sum_cwnd

let mean_cwnd_segments t =
  if t.active = 0 then 0.
  else t.f.sum_cwnd /. mssf t /. float_of_int t.active

let active t = t.active
let created t = t.created
let completed t = t.completed
let delivered_bytes t = t.f.delivered
let loss_events t = t.loss_events
let table t = t.table
let wheel t = t.wheel

let goodput_mbps t ~duration =
  let s = Sim.Time.to_sec duration in
  if s <= 0. then 0. else t.f.delivered *. 8. /. s /. 1e6
