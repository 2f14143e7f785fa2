(** Simulated time.

    A single type represents both instants (time since simulation start)
    and durations. The representation is a count of integer nanoseconds,
    which keeps event ordering exact and simulations bit-reproducible —
    no floating-point drift in the event clock.

    Timestamps are native 63-bit [int]s (~±146 years of range), so they
    are immediate values: records that carry a [Time.t] — event-queue
    entries, packets, RTT samples — hold it unboxed, and time
    arithmetic on the simulation hot path allocates nothing. *)

type t = private int

val zero : t
(** The simulation epoch (also the zero duration). *)

val ns : int -> t
(** [ns n] is a duration of [n] nanoseconds. Negative values are allowed
    (they arise from subtraction) but cannot be scheduled. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val of_sec : float -> t
(** [of_sec s] converts fractional seconds, rounding to the nearest ns. *)

val to_sec : t -> float
(** [to_sec t] is [t] in fractional seconds. *)

val of_ns_int : int -> t
(** [of_ns_int n] is a duration of [n] nanoseconds ([ns] under a name
    that pairs with {!to_ns_int} for round-tripping raw counters). *)

val to_ns_int : t -> int
(** [to_ns_int t] is the raw nanosecond count. *)

val to_ms : t -> float
(** [to_ms t] is [t] in fractional milliseconds. *)

val add : t -> t -> t
val sub : t -> t -> t

val scale : t -> float -> t
(** [scale t k] multiplies a duration by a scalar, rounding to ns. *)

val mul_int : t -> int -> t

val compare : t -> t -> int
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val is_negative : t -> bool
val is_positive : t -> bool
(** [is_positive t] is [t > zero]. *)

val infinity : t
(** A sentinel far beyond any realistic simulation horizon (~146 years). *)

val pp : Format.formatter -> t -> unit
(** Prints with an adaptive unit (ns/µs/ms/s). *)

val to_string : t -> string
