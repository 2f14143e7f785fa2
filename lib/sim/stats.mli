(** Online statistics used by monitors and the benchmark harness. *)

(** Streaming moments (Welford), min/max and count. Code reads
    {!Summary.count}, {!Summary.mean} and {!Summary.stddev}; the rest is
    read only by the [sim.stats] tests "summary basics", "summary
    merge", "summary pp empty", and the qchecks "Welford matches naive
    two-pass" (against a two-pass recount) and "Summary.merge equals
    single-stream add". *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0. when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0. for fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val total : t -> float
  val merge : t -> t -> t
  (** Combine two summaries as if all samples were added to one. *)

  val pp : Format.formatter -> t -> unit
end

(** Fixed-range, fixed-width-bin histogram with under/overflow bins. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit

  val quantile : t -> float -> float
  (** [quantile h q] for q in [0,1]; linear interpolation within the bin.
      Under/overflowed samples clamp to the range edges. Raises
      [Invalid_argument] on an empty histogram. *)
end

(** A gauge integrated over simulated time, for time-averaged queue
    occupancy, window size, etc. *)
module Time_weighted : sig
  type t

  val create : now:Time.t -> init:float -> t
  val set : t -> now:Time.t -> float -> unit
  (** Record that the gauge changed to the given value at [now]. Times
      must be non-decreasing. *)

  val mean : t -> now:Time.t -> float
  (** Time-average from creation to [now]. Equal to the current value
      if no time has elapsed. *)

  val max : t -> float
end

(** An append-only (time, value) series, with helpers used by plots. *)
module Series : sig
  type t

  val create : ?name:string -> unit -> t
  val name : t -> string
  val add : t -> Time.t -> float -> unit
  val times : t -> Time.t array
  val values : t -> float array

  val to_csv_rows : t -> (float * float) list
  (** (seconds, value) pairs in insertion order. *)
end
