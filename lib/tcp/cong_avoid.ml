type round = {
  fold :
    float array -> int array -> int array -> int -> mss:int ->
    srtt:Sim.Time.t -> unit;
  cut : float array -> int -> mss:int -> unit;
}

type t = {
  name : string;
  on_ack :
    newly_acked:int -> cwnd:float -> mss:int -> srtt:Sim.Time.t option ->
    min_rtt:Sim.Time.t option -> now:Sim.Time.t -> float;
  on_round : round option;
  on_loss : cwnd:float -> flight:int -> mss:int -> now:Sim.Time.t ->
    float * float;
  on_rto : cwnd:float -> flight:int -> mss:int -> float * float;
  reset : unit -> unit;
}

let[@inline] floor_window ~mss w = Float.max (2. *. float_of_int mss) w

(* The additive-increase step of the Reno family: +k/cwnd per ACK, with
   k = MSS² (scaled, for small-RTT). [on_ack] takes one step; a round's
   [fold] applies a row's ACKs to its window in place, over an unboxed
   accumulator (the step is inlined, so no float leaves the loop). Both
   evaluate the same expression on the same operands in the same order,
   so a round is bit-identical to its ACKs applied one by one. *)
let[@inline] ai_step k cwnd = cwnd +. (k /. cwnd)

let[@inline] ai_fold k w i ~acks =
  let x = ref w.(i) in
  for _ = 1 to acks do
    x := ai_step k !x
  done;
  w.(i) <- !x

let[@inline] imin (a : int) b = if a <= b then a else b

(* The one kernel of every [fold]: [acks.(j)] steps on slot [rows.(j)]
   for each [j < n]. One row's steps form a chain in which each
   division waits for the previous one, but distinct rows' chains are
   independent, so four rows run abreast over four unboxed accumulators
   and the divider overlaps their divisions instead of waiting out each
   one's latency. A lane still takes exactly its own row's sequence of
   [ai_step]s, so no bit changes: the four share their common step
   count, then each lane's leftover steps, and the last [n mod 4] rows,
   run one at a time. *)
let[@inline] ai_fold_rows k w rows acks n =
  let j = ref 0 in
  while !j + 4 <= n do
    let j0 = !j in
    let r0 = rows.(j0) and r1 = rows.(j0 + 1) in
    let r2 = rows.(j0 + 2) and r3 = rows.(j0 + 3) in
    let a0 = acks.(j0) and a1 = acks.(j0 + 1) in
    let a2 = acks.(j0 + 2) and a3 = acks.(j0 + 3) in
    let x0 = ref w.(r0) and x1 = ref w.(r1) in
    let x2 = ref w.(r2) and x3 = ref w.(r3) in
    let common = imin (imin a0 a1) (imin a2 a3) in
    for _ = 1 to common do
      x0 := ai_step k !x0;
      x1 := ai_step k !x1;
      x2 := ai_step k !x2;
      x3 := ai_step k !x3
    done;
    for _ = common + 1 to a0 do x0 := ai_step k !x0 done;
    for _ = common + 1 to a1 do x1 := ai_step k !x1 done;
    for _ = common + 1 to a2 do x2 := ai_step k !x2 done;
    for _ = common + 1 to a3 do x3 := ai_step k !x3 done;
    w.(r0) <- !x0;
    w.(r1) <- !x1;
    w.(r2) <- !x2;
    w.(r3) <- !x3;
    j := j0 + 4
  done;
  for j = !j to n - 1 do
    ai_fold k w rows.(j) ~acks:acks.(j)
  done

let[@inline] reno_k mss =
  let m = float_of_int mss in
  m *. m

let[@inline] halve ~flight ~mss = floor_window ~mss (float_of_int flight /. 2.)

(* Reno's per-round rules in place: [acks] unscaled steps, and the loss
   rule for a window whose whole content is in flight — its halved
   flight, which is also the ssthresh [on_loss] returns. *)
let reno_fold w rows acks n ~mss ~srtt:_ =
  ai_fold_rows (reno_k mss) w rows acks n

let reno_cut w i ~mss = w.(i) <- halve ~flight:(int_of_float w.(i)) ~mss
let reno_round = Some { fold = reno_fold; cut = reno_cut }

let reno () =
  let on_ack ~newly_acked:_ ~cwnd ~mss ~srtt:_ ~min_rtt:_ ~now:_ =
    ai_step (reno_k mss) cwnd
  in
  let on_loss ~cwnd:_ ~flight ~mss ~now:_ =
    let ssthresh = halve ~flight ~mss in
    (ssthresh, ssthresh)
  in
  let on_rto ~cwnd:_ ~flight ~mss =
    (halve ~flight ~mss, float_of_int mss)
  in
  {
    name = "reno";
    on_ack;
    on_round = reno_round;
    on_loss;
    on_rto;
    reset = (fun () -> ());
  }

(* RFC 8312. Internal arithmetic in segments; time in seconds. *)
let cubic ?(c = 0.4) ?(beta = 0.7) () =
  let w_max = ref 0. in
  let epoch_start = ref None in
  let k = ref 0. in
  let w_est_base = ref 0. in
  let start_epoch ~now ~cwnd_seg =
    epoch_start := Some now;
    if !w_max < cwnd_seg then w_max := cwnd_seg;
    k := Float.cbrt (!w_max *. (1. -. beta) /. c);
    w_est_base := cwnd_seg
  in
  let on_ack ~newly_acked:_ ~cwnd ~mss ~srtt ~min_rtt:_ ~now =
    let m = float_of_int mss in
    let cwnd_seg = cwnd /. m in
    (match !epoch_start with
    | None -> start_epoch ~now ~cwnd_seg
    | Some _ -> ());
    let t_epoch =
      match !epoch_start with
      | Some t0 -> Sim.Time.to_sec (Sim.Time.sub now t0)
      | None -> 0.
    in
    let rtt = match srtt with Some s -> Sim.Time.to_sec s | None -> 0.1 in
    (* Target the cubic curve one RTT ahead. *)
    let t = t_epoch +. rtt in
    let w_cubic = (c *. ((t -. !k) ** 3.)) +. !w_max in
    (* TCP-friendly region: emulate Reno's average rate. *)
    let w_est =
      !w_est_base
      +. (3. *. (1. -. beta) /. (1. +. beta) *. (t_epoch /. Float.max rtt 1e-6))
    in
    let target = Float.max w_cubic w_est in
    let next =
      if target > cwnd_seg then
        (* Spread the increase over the ACKs of one window. *)
        cwnd_seg +. ((target -. cwnd_seg) /. Float.max cwnd_seg 1.)
      else cwnd_seg +. (0.01 /. Float.max cwnd_seg 1.)
    in
    next *. m
  in
  let on_loss ~cwnd ~flight:_ ~mss ~now =
    let m = float_of_int mss in
    let cwnd_seg = cwnd /. m in
    (* Fast convergence: release bandwidth when losses cluster. *)
    if cwnd_seg < !w_max then w_max := cwnd_seg *. (1. +. beta) /. 2.
    else w_max := cwnd_seg;
    let next = floor_window ~mss (cwnd *. beta) in
    epoch_start := Some now;
    k := Float.cbrt (!w_max *. (1. -. beta) /. c);
    w_est_base := next /. m;
    (next, next)
  in
  let on_rto ~cwnd:_ ~flight ~mss =
    let ssthresh = floor_window ~mss (float_of_int flight *. beta) in
    epoch_start := None;
    (ssthresh, float_of_int mss)
  in
  let reset () =
    w_max := 0.;
    epoch_start := None;
    k := 0.;
    w_est_base := 0.
  in
  { name = "cubic"; on_ack; on_round = None; on_loss; on_rto; reset }

(* Relentless congestion control (Mathis, arXiv 1102.3270): additive
   increase as Reno, but a loss event costs only the segments actually
   lost — here one MSS per fast-retransmit episode — instead of halving.
   ssthresh is pinned to the reduced window so recovery resumes exactly
   where the decrement left it. The analytical model: with per-segment
   loss probability p, +1 segment per RTT balances p·W segment
   decrements per RTT at p·W = 1, i.e. W* ≈ 1/p segments and throughput
   ≈ MSS/(p·RTT) — the oracle checked by test_policy_models. Timeouts
   still collapse the window (a lost retransmission means the decrement
   accounting is gone). *)
let[@inline] one_off ~mss cwnd = floor_window ~mss (cwnd -. float_of_int mss)

let relentless_round =
  Some { fold = reno_fold; cut = (fun w i ~mss -> w.(i) <- one_off ~mss w.(i)) }

let relentless () =
  let base = reno () in
  let on_loss ~cwnd ~flight:_ ~mss ~now:_ =
    let next = one_off ~mss cwnd in
    (next, next)
  in
  {
    name = "relentless";
    on_ack = base.on_ack;
    on_round = relentless_round;
    on_loss;
    on_rto = base.on_rto;
    reset = (fun () -> ());
  }

(* Small-RTT cwnd scaling (Briscoe & De Schepper, arXiv 1904.07598):
   classic AIMD adds one segment per RTT, so a sub-millisecond-RTT flow
   accelerates its *rate* thousands of times faster than a WAN flow and
   starves it at a shared bottleneck. Below a reference RTT the additive
   increase is scaled by srtt/ref_rtt, making rate acceleration
   (segments/s per second) RTT-independent: +MSS·(srtt/ref) per RTT,
   i.e. +MSS²·(srtt/ref)/cwnd per ACK. At or above ref_rtt — and before
   an RTT estimate exists — this is exactly Reno; decrease rules are
   untouched, so the W ≈ 1.2/√p steady state shrinks proportionally for
   short-RTT flows instead of being RTT-blind. *)
let[@inline] small_rtt_k ~ref_rtt ~mss rtt =
  if Sim.Time.(rtt < ref_rtt) then
    let m = float_of_int mss in
    Sim.Time.to_sec rtt /. Sim.Time.to_sec ref_rtt *. m *. m
  else reno_k mss

let small_rtt ?(ref_rtt = Sim.Time.ms 25) () =
  let base = reno () in
  let on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now =
    match srtt with
    | Some rtt -> ai_step (small_rtt_k ~ref_rtt ~mss rtt) cwnd
    | None -> base.on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now
  in
  let fold w rows acks n ~mss ~srtt =
    ai_fold_rows (small_rtt_k ~ref_rtt ~mss srtt) w rows acks n
  in
  {
    name = "small-rtt";
    on_ack;
    on_round = Some { fold; cut = reno_cut };
    on_loss = base.on_loss;
    on_rto = base.on_rto;
    reset = (fun () -> ());
  }

(* FAST-style delay-based control (Wei/Low FAST TCP): once per RTT the
   window moves toward the fixed point of
     w ← (1−γ)·w + γ·(base_rtt/avg_rtt · w + α)
   where avg_rtt is a γ-smoothed RTT average and α (segments) is the
   target per-flow backlog parked in the path's queues. At equilibrium
   w·(1 − base/avg) = α: exactly α segments queued. The per-update move
   is capped at window doubling, per the published algorithm. Loss
   reactions are Reno's. *)
let fast ?(alpha_seg = 16.) ?(gamma = 0.5) () =
  let base = reno () in
  let avg_rtt = ref None in
  let next_update = ref Sim.Time.zero in
  let on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now =
    match (srtt, min_rtt) with
    | Some rtt, Some base_rtt when Sim.Time.is_positive base_rtt ->
        let rtt_s = Sim.Time.to_sec rtt in
        let avg =
          match !avg_rtt with
          | None -> rtt_s
          | Some a -> ((1. -. gamma) *. a) +. (gamma *. rtt_s)
        in
        avg_rtt := Some avg;
        if Sim.Time.(now < !next_update) then cwnd
        else begin
          next_update := Sim.Time.add now rtt;
          let m = float_of_int mss in
          let base_s = Sim.Time.to_sec base_rtt in
          let target =
            ((1. -. gamma) *. cwnd)
            +. (gamma *. ((base_s /. avg *. cwnd) +. (alpha_seg *. m)))
          in
          floor_window ~mss (Float.min (2. *. cwnd) target)
        end
    | _ -> base.on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now
  in
  let reset () =
    avg_rtt := None;
    next_update := Sim.Time.zero
  in
  {
    name = "fast";
    on_ack;
    on_round = None;
    on_loss = base.on_loss;
    on_rto = base.on_rto;
    reset;
  }

(* Vegas: delay-based backlog estimation, adjusted once per RTT. *)
let vegas ?(alpha = 2.) ?(beta_seg = 4.) () =
  let base = reno () in
  let next_adjust = ref Sim.Time.zero in
  let on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now =
    match (srtt, min_rtt) with
    | Some rtt, Some base_rtt when Sim.Time.is_positive base_rtt ->
        if Sim.Time.(now < !next_adjust) then cwnd
        else begin
          next_adjust := Sim.Time.add now rtt;
          let m = float_of_int mss in
          let rtt_s = Sim.Time.to_sec rtt in
          let base_s = Sim.Time.to_sec base_rtt in
          (* Segments parked in queues along the path. *)
          let backlog = cwnd /. m *. ((rtt_s -. base_s) /. rtt_s) in
          if backlog < alpha then cwnd +. m
          else if backlog > beta_seg then floor_window ~mss (cwnd -. m)
          else cwnd
        end
    | _ ->
        base.on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now
  in
  {
    name = "vegas";
    on_ack;
    on_round = None;
    on_loss = base.on_loss;
    on_rto = base.on_rto;
    reset = (fun () -> next_adjust := Sim.Time.zero);
  }
