(** 32-bit TCP sequence numbers with wraparound arithmetic.

    Order is modular (RFC 793 §3.3): [a] is earlier than [b] when
    [diff a b < 0], provided the two numbers are within 2{^31} of each
    other, which TCP's window rules guarantee. *)

type t = private int32

val zero : t
val of_int : int -> t
(** Truncates to 32 bits. *)

val add : t -> int -> t
(** [add s n] advances [s] by [n] bytes, wrapping modulo 2{^32}.
    [n] may be negative. *)

val diff : t -> t -> int
(** [diff a b] is the signed distance from [b] to [a], in
    (-2{^31}, 2{^31}]. [diff (add b n) b = n] for |n| < 2{^31}. *)
