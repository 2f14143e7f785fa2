(** Mean-field oracle for N TCP flows through one RED queue.

    The many-flows engine ({!Workload.Many_flows}) simulates N coupled
    AIMD windows; this module predicts what those simulations should
    show, from the fluid limit the mean-field literature analyses
    (Reynier; Hollot-Misra-Towsley-Gong):

    - {!equilibrium}: the operating point (per-flow window, drop
      probability, standing queue) where Reno's square-root law meets
      the RED curve, by bisection on the average queue.
    - {!gain_margin}/{!predict}: a frequency-domain stability verdict
      for the linearized TCP/RED feedback loop (window integrator,
      queue integrator, RED's EWMA low-pass, one RTT of dead time).
      Margin < 1 means the loop is unstable and the queue oscillates
      as a limit cycle; margin > 1 means the queue settles.
    - {!critical_flows}: the boundary N below which the loop
      oscillates — few flows mean large windows, a violent sawtooth
      and an unstable loop; many flows mean small windows and a queue
      that converges. The margin is monotone in N, so bisection finds
      the crossing.
    - {!sweep}: run the engine at several N through {!Spec} and
      compare the measured queue behaviour against the predictions.
      Points within the documented uncertainty band around the
      boundary (0.25x..2x {!critical_flows}) are excluded from the
      agreement score — a linearized deterministic oracle cannot place
      the limit cycle's onset more precisely: the engine's independent
      per-flow loss draws desynchronize the windows and damp marginal
      oscillation, so the measured onset sits a small factor below the
      predicted one. *)

type path = {
  capacity : float;  (** bottleneck, bytes per second *)
  base_rtt : Sim.Time.t;  (** two-way propagation delay *)
  mss : int;
  buffer_packets : int;
  red : Netsim.Queue_disc.red_params;
}

val paper_path : path
(** The paper's 100 Mbit/s / 60 ms path with a 250-packet buffer and a
    RED curve scaled to it (min 50, max 150 packets, max_p 0.1,
    weight 0.002). *)

type equilibrium = {
  w_star : float;  (** per-flow window, packets *)
  p_star : float;  (** per-packet drop probability *)
  q_star : float;  (** standing queue, packets *)
  rtt_star : float;  (** base RTT + queueing delay, seconds *)
}

val equilibrium : path -> flows:int -> equilibrium
(** Solves [red_drop_probability q = 2/(w(q)(w(q)+2))] with
    [w(q) = C·rtt(q)/N] — full-utilization windows against Reno's
    loss-balance demand — for the standing queue. {!equilibrium},
    {!gain_margin} and {!predict} are the oracle's steps; code reads the
    oracle through {!critical_flows} and {!sweep}, and the
    [core.meanfield] tests "equilibrium is self-consistent" and
    "stability boundary is monotone in N" check each step. *)

type verdict = Stable | Oscillatory

val gain_margin : path -> flows:int -> float
(** Gain margin of the linearized loop at the phase crossover
    (loop phase −180°): margin < 1 predicts queue oscillation. *)

val predict : path -> flows:int -> verdict

val critical_flows : path -> int
(** Smallest N whose loop is stable; below it the oracle predicts
    oscillation. *)

(* --- empirical side ---------------------------------------------------- *)

type sweep_point = {
  sp_flows : int;
  sp_margin : float;
  sp_predicted : verdict;
  sp_queue_mean : float;
  sp_amplitude : float;  (** relative: stddev / mean queue *)
  sp_measured : verdict;
  sp_in_band : bool;  (** within 0.25x..2x of the predicted boundary *)
}

type sweep = {
  points : sweep_point list;
  critical : int;  (** {!critical_flows} of the path *)
  agreed : int;  (** out-of-band points whose verdicts match *)
  out_of_band : int;
}

val sweep :
  ?pool:Engine.Pool.t ->
  ?duration:Sim.Time.t ->
  ?flows:int list ->
  path ->
  seed:int ->
  sweep
(** Runs one scenario per flow count (default: powers of two spanning
    1/8x..8x the predicted boundary) and scores prediction against
    measurement outside the uncertainty band. *)
