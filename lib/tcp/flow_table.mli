(** Flat structure-of-arrays per-flow state for the flow-level
    [many_flows] engine.

    One table holds every flow's numeric state as parallel unboxed
    arrays, and the engine operates on a row index instead of a boxed
    per-flow record. Seven columns make a row: window, ssthresh,
    budget, RNG state, timer link, phase and free-list link. A million
    rows cost 7 words each and no per-flow heap object or closure.

    The columns are the record's arrays, one slot per row. The record
    is private: only the table replaces an array (when {!alloc} grows
    it), so its users read and write a live row's slot in place — a
    field load and an array access, with no float boxed across a module
    boundary. Re-read the field after an {!alloc}: a held array may be
    the old one. Rows are recycled through a free list; {!free}d rows
    are detectable via {!is_live}. *)

type t = private {
  mutable cap : int;  (** rows in every column; see {!capacity} *)
  mutable in_use : int;  (** live rows; see {!in_use} *)
  mutable free_head : int;  (** first free row; −1 = none *)
  mutable cwnd : float array;  (** window, bytes *)
  mutable ssthresh : float array;  (** bytes *)
  mutable budget : int array;  (** remaining bytes to send; −1 = unbounded *)
  mutable rng : int array;
      (** xorshift state, never 0 in a live row; see {!rng_next} *)
  mutable timer : int array;
      (** a free int per row for the engine's timer bookkeeping; −1 =
          none. [many_flows] keeps the link to the next row of the row's
          round cohort here. *)
  mutable phase : int array;
      (** the engine's code for the row's phase, 0 after {!alloc}. Codes
          are non-negative: the table marks free rows with −1. *)
  mutable next_free : int array;  (** free-list link; −1 ends the list *)
}

val create : ?initial_capacity:int -> unit -> t
(** Capacity doubles on demand (amortized O(1) {!alloc}). *)

val alloc : t -> int
(** Claim a row, reset to defaults: cwnd 0, ssthresh ∞, budget −1
    (unbounded), timer −1 (none), phase 0. May replace every column. *)

val free : t -> int -> unit
(** Return a row to the free list. Raises on a dead row. *)

val is_live : t -> int -> bool
val capacity : t -> int
val in_use : t -> int

(** {1 Per-flow randomness} — an inline xorshift stream per row, so
    flow-level engines draw per-flow randomness without a shared-stream
    dependence on iteration order. *)

val seed_rng : t -> int -> int -> unit
(** [seed_rng t i seed] — a zero seed is remapped to a fixed nonzero
    constant. *)

val rng_next : t -> int -> int
(** Next positive 62-bit xorshift draw, as an int: its caller turns it
    into a uniform float (the low 53 bits times 2⁻⁵³) without a boxed
    float crossing the call. *)

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
