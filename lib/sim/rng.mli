(** Deterministic random streams.

    SplitMix64 core: tiny state, excellent statistical quality for
    simulation workloads, and O(1) {!split} so independent model
    components get independent streams from one master seed. *)

type t

val of_seed : int -> t

val split : t -> t
(** [split t] derives a stream statistically independent of [t]'s
    subsequent output. *)

val state : t -> int64
(** Raw generator position, for checkpointing. *)

val set_state : t -> int64 -> unit
(** Restore a position captured with {!state}: the stream continues
    exactly where the captured generator would have. *)

val derive_seed : root:int -> stream:int -> int
(** Seed of the [stream]-th independent task stream under [root]: the
    SplitMix64 stream-jump construction, so experiment cells that share
    a root seed get uncorrelated random streams without any shared
    generator state. Deterministic in [(root, stream)]; the result is a
    non-negative [int] suitable for {!of_seed} or a [--seed] flag. *)

val bits64 : t -> int64
(** Next raw 64-bit value. Every draw below is built on it; only tests
    call it directly, to compare raw streams: the [sim.rng] tests
    "determinism", "seed sensitivity" and "split independence". *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi). Requires [lo <= hi]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto-distributed: values ≥ [scale], tail index [shape] (> 0). *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian via Box–Muller (no cached spare; each call is independent
    of previous state beyond the stream position). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. No code draws from {!normal} or
    {!shuffle}; only the [sim.rng] tests "normal moments" and "shuffle
    permutation" call them. *)
