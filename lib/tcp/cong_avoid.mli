(** Congestion-avoidance algorithms, pluggable per connection.

    Windows are floats in bytes. Each algorithm owns the additive-
    increase step during congestion avoidance and the multiplicative-
    decrease applied on loss events; the sender drives everything else
    (slow-start is a separate policy, see {!Slow_start}). *)

(** The per-round rule: whole RTT rounds applied in place to slots of
    a column of windows (the many-flows engine's
    {!Flow_table.t.cwnd}), so no window crosses the call boxed. *)
type round = {
  fold :
    float array -> int array -> int array -> int -> mss:int ->
    srtt:Sim.Time.t -> unit;
      (** [fold w rows acks n ~mss ~srtt] replaces, for each [j < n],
          [w.(rows.(j))] with the window [acks.(j)] consecutive full-MSS
          ACKs at [srtt] reach from it: bit-identical to folding
          [on_ack] [acks.(j)] times with [newly_acked = mss] and
          [srtt = Some srtt]. Slots outside [rows] are untouched. The
          rows [rows.(0)] … [rows.(n-1)] must be distinct: four of them
          run abreast, so their divisions overlap in the divider rather
          than each waiting for the last, and each lane still takes
          exactly its row's sequence of steps. A round cohort's rows
          (one call per chunk) or a single row ([n = 1]) are the
          engine's two uses. *)
  cut : float array -> int -> mss:int -> unit;
      (** [cut w i ~mss] replaces [w.(i)] with the window
          [on_loss ~cwnd:w.(i) ~flight:(int_of_float w.(i))] returns.
          For every rule that has one, the ssthresh [on_loss] returns is
          that same window. *)
}

type t = {
  name : string;
  on_ack :
    newly_acked:int -> cwnd:float -> mss:int -> srtt:Sim.Time.t option ->
    min_rtt:Sim.Time.t option -> now:Sim.Time.t -> float;
      (** new cwnd after an ACK of new data while in congestion
          avoidance *)
  on_round : round option;
      (** The in-place per-round rule. [Some] only for algorithms whose
          per-ACK and loss rules read nothing but their arguments (reno,
          relentless, small-rtt), so one instance may serve any number
          of flows; [None] for those with per-connection state (cubic,
          vegas, fast). *)
  on_loss : cwnd:float -> flight:int -> mss:int -> now:Sim.Time.t ->
    float * float;
      (** (ssthresh, cwnd) after a fast-retransmit loss event *)
  on_rto : cwnd:float -> flight:int -> mss:int -> float * float;
      (** (ssthresh, cwnd) after a retransmission timeout *)
  reset : unit -> unit;  (** clear epoch state (new connection reuse) *)
}

val reno : unit -> t
(** AIMD: +MSS per RTT (MSS²/cwnd per ACK), halve on loss. *)

val cubic : ?c:float -> ?beta:float -> unit -> t
(** RFC 8312 CUBIC: window follows C·(t−K)³ + Wmax with β=0.7 decrease
    and a TCP-friendly (Reno-tracking) lower bound. *)

val relentless : unit -> t
(** Relentless congestion control (Mathis, arXiv 1102.3270): Reno's
    additive increase, but a loss event reduces the window by one MSS
    (the lost segment) instead of halving, with ssthresh pinned to the
    reduced window. Steady state under per-segment loss probability [p]
    sits at W* ≈ 1/p segments (throughput ≈ MSS/(p·RTT)) — the
    analytical model the oracle tests check. RTO reaction is Reno's. *)

val small_rtt : ?ref_rtt:Sim.Time.t -> unit -> t
(** Small-RTT cwnd scaling (Briscoe & De Schepper, arXiv 1904.07598):
    Reno, but below [ref_rtt] (default 25 ms) the additive increase is
    scaled by [srtt/ref_rtt], so rate acceleration is RTT-independent
    and short-RTT flows stop starving long-RTT competitors at a shared
    bottleneck. Identical to Reno at or above [ref_rtt]; decrease rules
    are Reno's. *)

val fast : ?alpha_seg:float -> ?gamma:float -> unit -> t
(** FAST-style delay-based avoidance (Wei & Low): once per RTT,
    [w ← (1−γ)·w + γ·(base_rtt/avg_rtt·w + α)] with [avg_rtt] a
    γ-smoothed average (default γ=0.5) and [alpha_seg] (default 16) the
    target queued backlog in segments; the per-update move is capped at
    window doubling. Equilibrium parks exactly α segments in the path's
    queues. Falls back to Reno's increase until RTT estimates exist;
    loss reactions are Reno's. *)

val vegas : ?alpha:float -> ?beta_seg:float -> unit -> t
(** Vegas (Brakmo & Peterson): once per RTT estimate the backlog
    [cwnd·(rtt − base_rtt)/rtt] in segments; grow by one MSS below
    [alpha] (default 2), shrink by one above [beta_seg] (default 4),
    hold in between. Falls back to Reno's increase until RTT estimates
    exist. Loss reactions are Reno's. *)
