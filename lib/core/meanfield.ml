(* Mean-field oracle: fixed point and linearized stability of N Reno
   flows against one RED queue, plus the sweep that checks the
   many-flows engine against the predictions.

   Units inside this module are packets and seconds. The fixed point
   couples two monotone curves in the standing queue q:

     supply: RED's drop probability  p_red(q)         (increasing)
     demand: Reno's loss balance     2/(w(q)(w(q)+2)) (decreasing)

   where w(q) = C·(R0 + q/C)/N is the per-flow window that fills the
   link. Their crossing is the operating point; bisection finds it
   because the difference is strictly increasing.

   Stability comes from the Hollot-Misra-Towsley-Gong linearization of
   the same fluid model: window dynamics and queue integrator in
   cascade, RED's EWMA as a first-order low-pass, and one RTT of dead
   time. All factors are first-order, so magnitude and phase are
   closed-form and the phase crossover is found by bisection — no
   complex arithmetic, no frequency grid. *)

type path = {
  capacity : float;
  base_rtt : Sim.Time.t;
  mss : int;
  buffer_packets : int;
  red : Netsim.Queue_disc.red_params;
}

let paper_path =
  {
    capacity = 100e6 /. 8.;
    base_rtt = Sim.Time.ms 60;
    mss = 1500;
    buffer_packets = 250;
    red =
      {
        Netsim.Queue_disc.min_th = 50.;
        max_th = 150.;
        max_p = 0.1;
        weight = 0.002;
      };
  }

type equilibrium = {
  w_star : float;
  p_star : float;
  q_star : float;
  rtt_star : float;
}

(* Packets per second through the bottleneck. *)
let cap_pkts p = p.capacity /. float_of_int p.mss

let rtt_at p q = Sim.Time.to_sec p.base_rtt +. (q /. cap_pkts p)

(* Full-utilization window per flow at standing queue q. *)
let w_at p ~n q = cap_pkts p *. rtt_at p q /. float_of_int n

(* Reno's loss-balance demand: in congestion avoidance a flow gains one
   packet per loss-free round and loses w/2 on a lost round; a round is
   lost with probability ~ p·w, so balance gives p = 2/(w(w+2)). *)
let demand p ~n q =
  let w = Stdlib.max 1e-9 (w_at p ~n q) in
  2. /. (w *. (w +. 2.))

let equilibrium p ~flows:n =
  let f q = Netsim.Queue_disc.red_drop_probability p.red ~avg:q -. demand p ~n q in
  let hi =
    Stdlib.min (float_of_int p.buffer_packets) (2. *. p.red.Netsim.Queue_disc.max_th)
  in
  let q_star =
    if f hi <= 0. then hi (* overload: pinned at the forced-drop edge *)
    else begin
      let lo = ref 0. and hi = ref hi in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if f mid < 0. then lo := mid else hi := mid
      done;
      0.5 *. (!lo +. !hi)
    end
  in
  {
    w_star = w_at p ~n q_star;
    p_star = Netsim.Queue_disc.red_drop_probability p.red ~avg:q_star;
    q_star;
    rtt_star = rtt_at p q_star;
  }

type verdict = Stable | Oscillatory

(* Linearized open loop at the operating point, as gain constants and
   first-order poles (rad/s):

     TCP window:  (R C²/2N²) / (s + 2N/(R²C))
     queue:       (N/R)      / (s + 1/R)
     RED filter:  K          / (s + K),  K = weight · C  (per-packet
                  EWMA applied at line rate)
     RED slope:   dp/davg at q*  (linear or gentle segment)
     dead time:   e^{-sR}

   with C in packets/s and R the equilibrium RTT. *)
let loop p ~flows:n =
  let e = equilibrium p ~flows:n in
  let c = cap_pkts p in
  let r = e.rtt_star in
  let nf = float_of_int n in
  let red = p.red in
  let slope =
    if e.q_star <= red.Netsim.Queue_disc.max_th then
      red.Netsim.Queue_disc.max_p
      /. (red.Netsim.Queue_disc.max_th -. red.Netsim.Queue_disc.min_th)
    else (1. -. red.Netsim.Queue_disc.max_p) /. red.Netsim.Queue_disc.max_th
  in
  let k_red = red.Netsim.Queue_disc.weight *. c in
  let a_tcp = 2. *. nf /. (r *. r *. c) in
  let g_tcp = r *. c *. c /. (2. *. nf *. nf) in
  let a_q = 1. /. r in
  let g_q = nf /. r in
  let magnitude w =
    slope
    *. (k_red /. Float.hypot w k_red)
    *. (g_tcp /. Float.hypot w a_tcp)
    *. (g_q /. Float.hypot w a_q)
  in
  let phase w =
    -.(atan (w /. k_red) +. atan (w /. a_tcp) +. atan (w /. a_q) +. (w *. r))
  in
  (magnitude, phase)

let gain_margin p ~flows =
  let magnitude, phase = loop p ~flows in
  (* The dead-time term drives the phase to -inf, so a crossover always
     exists; bracket it, then bisect. *)
  let hi = ref 1. in
  while phase !hi > -.Float.pi do
    hi := !hi *. 2.
  done;
  let lo = ref 0. in
  for _ = 1 to 60 do
    let mid = 0.5 *. (!lo +. !hi) in
    if phase mid > -.Float.pi then lo := mid else hi := mid
  done;
  let w_pc = 0.5 *. (!lo +. !hi) in
  1. /. magnitude w_pc

let predict p ~flows = if gain_margin p ~flows < 1. then Oscillatory else Stable

let critical_flows p =
  (* margin(N) is monotone increasing: gain scales as C²/2N while the
     window pole moves right with N, both shrinking the loop. *)
  let hi = ref 1 in
  while predict p ~flows:!hi = Oscillatory && !hi < 1 lsl 30 do
    hi := !hi * 2
  done;
  let lo = ref (Stdlib.max 1 (!hi / 2)) and hi = ref !hi in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if predict p ~flows:mid = Oscillatory then lo := mid else hi := mid
  done;
  !hi

(* --- empirical side ----------------------------------------------------- *)

let spec_for ?(duration = Sim.Time.sec 30) p ~flows ~seed =
  let sample =
    Sim.Time.max (Sim.Time.ms 1) (Sim.Time.scale p.base_rtt 0.25)
  in
  {
    Spec.default with
    Spec.name = Printf.sprintf "meanfield-n%d" flows;
    seed;
    duration;
    sample_period = sample;
    record_series = true;
    topology =
      Spec.Duplex
        {
          Spec.rate = p.capacity *. 8.;
          one_way_delay = Sim.Time.scale p.base_rtt 0.5;
          ifq_capacity = p.buffer_packets;
          loss_rate = 0.;
          ifq_red_ecn = Some p.red;
        };
    flows =
      [
        {
          Spec.default_flow with
          Spec.label = Some (Printf.sprintf "many-%d" flows);
          workload =
            Spec.Many_flows
              {
                flows;
                arrival_rate = None;
                arrival_pareto_shape = None;
                mean_size = None;
                size_pareto_shape = 1.2;
              };
        };
      ];
  }

let oscillation_threshold = 0.1

(* Mean and relative swing of the queue over the second half of the
   run (the first half is start-up transient: synchronized slow-start
   overshoot and drain): oscillatory when the standard deviation
   exceeds [oscillation_threshold] of the mean (or of one packet,
   whichever is larger). *)
let classify series ~duration =
  let times = Sim.Stats.Series.times series in
  let values = Sim.Stats.Series.values series in
  let half = Sim.Time.scale duration 0.5 in
  let acc = Sim.Stats.Summary.create () in
  Array.iteri
    (fun i t ->
      if Sim.Time.(t >= half) then Sim.Stats.Summary.add acc values.(i))
    times;
  if Sim.Stats.Summary.count acc = 0 then (0., 0., Stable)
  else begin
    let mean = Sim.Stats.Summary.mean acc in
    let rel =
      Sim.Stats.Summary.stddev acc /. Stdlib.max 1. (Float.abs mean)
    in
    (mean, rel, if rel > oscillation_threshold then Oscillatory else Stable)
  end

type sweep_point = {
  sp_flows : int;
  sp_margin : float;
  sp_predicted : verdict;
  sp_queue_mean : float;
  sp_amplitude : float;
  sp_measured : verdict;
  sp_in_band : bool;
}

type sweep = {
  points : sweep_point list;
  critical : int;
  agreed : int;
  out_of_band : int;
}

let default_flows critical =
  List.sort_uniq compare
    (List.filter_map
       (fun shift ->
         let n =
           if shift < 0 then critical lsr -shift else critical lsl shift
         in
         if n >= 1 then Some n else None)
       [ -3; -2; -1; 0; 1; 2; 3 ])

let sweep ?pool ?(duration = Sim.Time.sec 30) ?flows p ~seed =
  let critical = critical_flows p in
  let flows = match flows with Some f -> f | None -> default_flows critical in
  let specs = List.map (fun n -> spec_for ~duration p ~flows:n ~seed) flows in
  let outcomes = Spec.run_batch ?pool specs in
  let points =
    List.map2
      (fun n (o : Spec.outcome) ->
        let series =
          match o.Spec.results with
          | r :: _ -> r.Spec.ifq_series
          | [] -> Sim.Stats.Series.create ()
        in
        let mean, amp, measured = classify series ~duration in
        (* The engine's independent per-flow loss draws desynchronize
           the windows and damp the limit cycle near its onset — a
           stabilization the deterministic fluid model cannot see — so
           the measured boundary sits below the linearized prediction.
           The documented tolerance: verdicts must agree outside
           0.25x..2x of the predicted boundary. *)
        let in_band = 4 * n > critical && n < 2 * critical in
        {
          sp_flows = n;
          sp_margin = gain_margin p ~flows:n;
          sp_predicted = predict p ~flows:n;
          sp_queue_mean = mean;
          sp_amplitude = amp;
          sp_measured = measured;
          sp_in_band = in_band;
        })
      flows outcomes
  in
  let out = List.filter (fun sp -> not sp.sp_in_band) points in
  {
    points;
    critical;
    agreed =
      List.length (List.filter (fun sp -> sp.sp_predicted = sp.sp_measured) out);
    out_of_band = List.length out;
  }
