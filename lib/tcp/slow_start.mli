(** Pluggable slow-start policies — the axis of the paper.

    A policy decides, on each ACK received while the connection is in
    the slow-start phase, how much the congestion window changes and
    whether to leave slow-start voluntarily. All byte quantities are
    unwrapped offsets/sizes; the policy never touches packets. *)

(** Read-only view of the sender and its host, handed to the policy on
    every decision. All thunks are cheap. *)
type view = {
  now : unit -> Sim.Time.t;
  mss : int;
  cwnd : unit -> float;             (** bytes *)
  ssthresh : unit -> float;         (** bytes; may be [infinity] *)
  flight : unit -> int;             (** bytes outstanding *)
  snd_una : unit -> int;            (** unwrapped cumulative-ACK offset *)
  snd_nxt : unit -> int;            (** unwrapped next-send offset *)
  srtt : unit -> Sim.Time.t option;
  min_rtt : unit -> Sim.Time.t option;
  ifq_occupancy : unit -> int;      (** host interface queue, packets *)
  ifq_capacity : unit -> int;
}

type decision = {
  cwnd_delta : float;
      (** bytes to add to cwnd (negative allowed; the sender floors the
          window at 2·MSS) *)
  exit_slow_start : bool;
      (** leave slow-start now, setting ssthresh to the current cwnd *)
}

type t = {
  name : string;
  on_ack : view -> newly_acked:int -> rtt_sample:Sim.Time.t option -> decision;
  reset : unit -> unit;
      (** called when slow-start is re-entered (after an RTO) *)
}

val standard : unit -> t
(** RFC 5681: cwnd += MSS on each ACK — exponential per-RTT doubling. *)

val abc : ?l_limit:int -> unit -> t
(** RFC 3465 Appropriate Byte Counting: cwnd grows by the number of
    bytes acknowledged, capped at [l_limit]·MSS per ACK (default L=2).
    Under delayed ACKs this restores true per-RTT doubling (plain
    per-ACK counting only reaches 1.5×), while the cap prevents
    stretch-ACKs from producing mega-bursts. *)

val limited : ?max_ssthresh_segments:int -> unit -> t
(** RFC 3742 Limited Slow-Start. Below [max_ssthresh] (default 100
    segments) behaves like {!standard}; above it the per-ACK increment
    tapers as MSS/K with K = ceil(cwnd / (0.5·max_ssthresh)), bounding
    growth to at most max_ssthresh/2 segments per RTT. *)

val hystart :
  ?ack_train_threshold:Sim.Time.t -> ?min_samples:int -> unit -> t
(** Hybrid Slow Start (Ha & Rhee). Exponential growth with two exit
    detectors: the ACK-train test (ACKs spaced < [ack_train_threshold],
    default 2 ms, whose cumulative span reaches min_rtt/2 — the window
    already covers the pipe) and the delay-increase test (the minimum
    RTT of the current round exceeds the connection minimum by
    clamp(min_rtt/8, 4 ms, 16 ms) over the first [min_samples] samples
    of a round, default 8). *)

val ssthreshless : ?queue_fraction:float -> ?min_samples:int -> unit -> t
(** SSthreshless Start (after arXiv 1401.7146): exponential growth whose
    exit is decided by the measured path, not by ssthresh. Once
    [min_samples] (default 4) consecutive RTT samples show queuing
    delay above [queue_fraction]·base_rtt (default 0.25) the pipe is
    judged full and the window is set to the BDP estimate
    cwnd·base_rtt/current_rtt on the way out of slow-start (the sender
    then pins ssthresh there). Eliminates both the overshoot (ssthresh
    too high) and undershoot (ssthresh too low) failure modes on
    long-fat networks. *)

type restricted_config = {
  gains : Control.Pid.gains;
  setpoint_fraction : float;
      (** fraction of IFQ capacity to hold, 0.9 in the paper *)
  max_step_segments : float;
      (** clamp on the per-ACK window change magnitude, in segments *)
  sample_min_interval : Sim.Time.t;
      (** PID step floor — ACKs arriving faster share one step *)
}

val default_restricted_config : restricted_config
(** Gains from running the in-repo Ziegler–Nichols autotuner against the
    calibration scenario (see DESIGN.md E0), through the paper's rule
    Kp=0.33·Kc, Ti=0.5·Tc, Td=0.33·Tc; set point 0.9, step clamp 8
    segments, 1 ms sampling floor. *)

val restricted : ?config:restricted_config -> unit -> t
(** The paper's contribution. Each PID step measures
    [error = setpoint − ifq_occupancy] (packets) and moves the window by
    the controller output (segments, clamped to ±max_step). The window
    can pause or back off as the IFQ approaches its set point, so the
    interface queue is never overrun — no send-stalls, no spurious
    congestion signals. The policy never exits slow-start by itself; the
    controller simply holds the window at the set point until a genuine
    congestion event moves the connection to congestion avoidance. *)

val restricted_adaptive : ?config:restricted_config -> unit -> t
(** {!restricted} with gain scheduling: instead of shipping constants
    tuned for one path, the integral and derivative times are rescaled
    continuously from the connection's measured minimum RTT using the
    linearized critical point (Kc ≈ 1, Tc ≈ 2·RTT) pushed through the
    paper's rule — Ti = RTT, Td = 0.66·RTT. Fixes the fixed-gain
    overshoot on paths much slower than the tuning path (experiment E9).
    [config]'s Kp is kept; its Ti/Td serve until the first RTT sample. *)

val commanded : target_segments:float ref -> t
(** Testing/calibration policy: on every ACK the window snaps to
    [!target_segments]·MSS (floored at 2·MSS by the sender). This is how
    the Ziegler–Nichols harness drives the real simulated IFQ plant with
    an externally chosen window. Never exits slow-start. *)
