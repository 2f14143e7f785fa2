(** Sender-side SACK scoreboard (RFC 6675-style, over unwrapped byte
    offsets).

    Tracks which byte ranges above the cumulative ACK point the receiver
    has reported holding, computes the pipe deflation and the next hole
    to retransmit during recovery. *)

type t

val create : unit -> t

val record : t -> blocks:(int * int) list -> una:int -> unit
(** Merge the SACK blocks of one ACK (byte offsets, [lo, hi)). Ranges at
    or below [una] are discarded — the cumulative ACK supersedes them. *)

val advance_una : t -> int -> unit
(** Cumulative ACK moved: forget everything below it. *)

val sacked_bytes : t -> int
(** Bytes above the ACK point known to be held by the receiver. *)

val is_sacked : t -> lo:int -> hi:int -> bool
(** Is all of [lo, hi) SACKed? Only the [tcp.sack-reorder] test
    "scoreboard record" reads it, to see where {!record} put a block. *)

val next_hole : t -> una:int -> mss:int -> (int * int) option
(** First unsacked range at/above [una] with SACKed data above it,
    clipped to [mss] bytes — the retransmission RFC 6675 would pick.
    [None] when there is no such hole. *)

val reset : t -> unit
(** Drop all state (used on RTO, which invalidates the scoreboard). *)

val holes : t -> int
(** Number of distinct holes below the highest SACKed byte. No code
    reads it; only the [tcp.sack-reorder] test "holes count" does. *)
