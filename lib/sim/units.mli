(** Bandwidths, byte counts and derived quantities.

    Rates are plain floats in bits per second; this module centralises
    the conversions and the serialization-delay arithmetic so the rest
    of the code never multiplies by 8 in place. *)

type rate = float
(** Bits per second. *)

val mbps : float -> rate
val gbps : float -> rate

val rate_to_mbps : rate -> float

val tx_time : rate -> bytes:int -> Time.t
(** [tx_time r ~bytes] is the serialization delay of [bytes] at rate [r]. *)

val bytes_in : rate -> Time.t -> float
(** [bytes_in r t] is how many bytes rate [r] moves in duration [t]. *)

val bdp_packets : rate -> rtt:Time.t -> packet_bytes:int -> float
(** Bandwidth-delay product in packets of the given size. *)
