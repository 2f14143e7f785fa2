(** Flat structure-of-arrays per-flow state for the flow-level
    [many_flows] engine.

    One table holds every flow's numeric state as parallel unboxed
    arrays, and the engine operates on a row index instead of a boxed
    per-flow record. Seven columns make a row: window, ssthresh,
    budget, RNG state, timer link, phase and free-list link. A million
    rows cost 7 words each and no per-flow heap object or closure.

    Rows are recycled through a free list; {!free}d rows are detectable
    via {!is_live}. Accessors are unchecked reads/writes of live rows —
    O(1), allocation-free. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** Capacity doubles on demand (amortized O(1) {!alloc}). *)

val alloc : t -> int
(** Claim a row, reset to defaults: cwnd 0, ssthresh ∞, budget −1
    (unbounded), timer −1 (none), phase 0. *)

val free : t -> int -> unit
(** Return a row to the free list. Raises on a dead row. *)

val is_live : t -> int -> bool
val capacity : t -> int
val in_use : t -> int

(** {1 Columns} — windows in float bytes, budgets in int bytes. *)

val cwnd : t -> int -> float
val set_cwnd : t -> int -> float -> unit
val ssthresh : t -> int -> float
val set_ssthresh : t -> int -> float -> unit

val budget : t -> int -> int
(** Remaining bytes to send; −1 = unbounded. *)

val set_budget : t -> int -> int -> unit

val timer : t -> int -> int
(** A free int per row for the engine's timer bookkeeping; −1 = none
    (the {!alloc} default). The table only stores it. [many_flows]
    keeps the link to the next row of the row's round cohort here. *)

val set_timer : t -> int -> int -> unit

val phase : t -> int -> int
(** The engine's code for the row's phase; 0 after {!alloc}. Codes are
    non-negative: the table marks free rows with −1. *)

val set_phase : t -> int -> int -> unit

(** {1 Per-flow randomness} — an inline xorshift stream per row, so
    flow-level engines draw per-flow randomness without a shared-stream
    dependence on iteration order. *)

val seed_rng : t -> int -> int -> unit
(** [seed_rng t i seed] — a zero seed is remapped to a fixed nonzero
    constant. *)

val rng_next : t -> int -> int
(** Next positive 62-bit xorshift draw. {!rng_float} is built on it;
    only the [tcp.flow-table] test "per-row xorshift streams" calls it
    directly, to compare raw streams. *)

val rng_float : t -> int -> float
(** Uniform draw in [0,1) (53 mantissa bits). *)

(** {1 Snapshot} — full-table serialization into a {!Sim.Snapshot}
    image. Free rows and the free-list order travel too, so a restored
    table allocates the same rows in the same order as the original. *)

val save : t -> prefix:string -> Sim.Snapshot.writer -> unit
(** Write every column and scalar as sections named [prefix ^ column]. *)

val restore : t -> prefix:string -> Sim.Snapshot.reader -> unit
(** Overwrite [t] in place with the saved table. Raises
    {!Sim.Snapshot.Corrupt}, naming the section, on a missing or short
    section, on an [in_use] outside 0..capacity or a free-list link
    outside −1..capacity−1, and unless the list from [free_head]
    visits exactly capacity − [in_use] distinct rows and those are
    exactly the rows marked free. *)
