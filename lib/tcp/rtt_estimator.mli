(** RFC 6298 retransmission-timer estimation.

    SRTT/RTTVAR smoothing with the standard alpha=1/8, beta=1/4 and
    [RTO = SRTT + 4·RTTVAR], clamped to configurable bounds. Timestamps
    make every ACK a valid sample (Karn's rule handled by the caller
    simply by always echoing the segment that triggered the ACK). *)

type t

val create : ?min_rto:Sim.Time.t -> ?max_rto:Sim.Time.t -> unit -> t
(** Defaults: min 200 ms (Linux), max 60 s. Before the first sample the
    RTO is 1 s (RFC 6298 §2.1) clamped to the bounds. *)

val sample : t -> Sim.Time.t -> unit
(** Feed one RTT measurement. Non-positive samples are clamped to 1 µs. *)

val srtt : t -> Sim.Time.t option
(** Smoothed RTT; [None] before the first sample. *)

val rttvar : t -> Sim.Time.t option
(** RTT variation, which {!rto} adds four times; [None] before the
    first sample. Only the [tcp.rtt-estimator] test "EWMA smoothing"
    reads it. *)

val min_rtt : t -> Sim.Time.t option
(** Smallest sample seen — the propagation-delay estimate HyStart and
    Vegas-style logic need. *)

val rto : t -> Sim.Time.t
(** Current retransmission timeout including backoff. *)

val backoff : t -> unit
(** Double the RTO (exponential backoff), up to the max. *)

val reset_backoff : t -> unit
(** Clear backoff after an ACK of new data. *)

val backoff_factor : t -> int
(** Current multiplier on the computed RTO: 1 when not backed off,
    doubling per {!backoff} up to 64. The effective {!rto} additionally
    clamps at [max_rto]. *)
