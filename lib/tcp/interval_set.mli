(** Sets of byte ranges as sorted disjoint half-open intervals [lo, hi).

    Backbone of both the receiver's reorder buffer and the sender's SACK
    scoreboard. Mutable; operations keep the invariant: sorted by [lo],
    pairwise disjoint, no empty or touching intervals (touching ranges
    are coalesced). *)

type t

val create : unit -> t

val add : t -> lo:int -> hi:int -> unit
(** Insert [lo, hi), merging with any overlapping or adjacent ranges.
    No-op when [lo >= hi]. *)

val remove_below : t -> int -> unit
(** Drop all bytes < the bound (trimming a straddling interval). *)

val mem : t -> int -> bool
(** Is this byte covered? Only tests call it, as the membership oracle:
    the [tcp.interval-set] tests "mem / contains_range" and "interval
    set matches model set", and the [prop.interval-set] suite. *)

val contains_range : t -> lo:int -> hi:int -> bool
(** Is every byte of [lo, hi) covered (by a single interval)? *)

val total : t -> int
(** Number of bytes covered. *)

val count : t -> int
(** Number of disjoint intervals. No code calls {!count} or {!first};
    only the [tcp.interval-set] test "first/count" does. *)

val intervals : t -> (int * int) list
(** Ascending [lo, hi) pairs. *)

val first : t -> (int * int) option

val extend_contiguous : t -> int -> int
(** [extend_contiguous t x]: the highest [y >= x] such that every byte
    of [x, y) is covered, i.e. how far a cursor at [x] can advance
    through buffered data. Returns [x] when byte [x] is not covered.
    Consumed intervals are {e not} removed. *)

val next_gap : t -> from:int -> (int * int) option
(** [next_gap t ~from]: the first maximal uncovered range [g_lo, g_hi)
    with [g_lo >= from] lying strictly below the set's highest covered
    byte ([g_hi] is the start of the following interval). [None] when no
    covered interval lies above the candidate gap — i.e. there is no
    hole with known data beyond it. *)
