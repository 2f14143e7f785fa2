(** Discrete-time PID controller in standard (ISA) form:

    {v u = Kp * ( e  +  (1/Ti) ∫e dt  +  Td de/dt ) v}

    exactly the transfer function of the paper (§3). Practical
    refinements that do not change the ideal behaviour: clamped output
    with integral anti-windup (conditional integration), and a
    first-order filter on the derivative term to tame measurement
    noise. Time is plain seconds — the controller is host-agnostic. *)

type gains = {
  kp : float;  (** proportional gain *)
  ti : float;  (** integral time, seconds; [infinity] disables I *)
  td : float;  (** derivative time, seconds; [0.] disables D *)
}

val p_only : float -> gains
val pi : kp:float -> ti:float -> gains
val pid : kp:float -> ti:float -> td:float -> gains
val pp_gains : Format.formatter -> gains -> unit

type config = {
  gains : gains;
  out_min : float;          (** lower output clamp *)
  out_max : float;          (** upper output clamp *)
  derivative_filter : float;
      (** time constant (s) of the first-order filter applied to the
          derivative term; [0.] = unfiltered *)
}

val config :
  ?out_min:float ->
  ?out_max:float ->
  ?derivative_filter:float ->
  gains ->
  config
(** Defaults: unbounded output, no derivative filtering. *)

type t

val create : config -> t

val step : t -> dt:float -> error:float -> float
(** [step t ~dt ~error] advances the controller by [dt] seconds with the
    current set-point error and returns the clamped output. [dt] must be
    positive; the first step uses no derivative (no previous error). *)

val output : t -> float
(** Last computed output (0. before the first step). *)

val integral : t -> float
(** Current integral accumulator, in error·seconds. It and {!output}
    are read only by the [control] tests "P proportionality", "I
    accumulates" and "reset", which watch the controller's state. *)

val reset : t -> unit
(** Clear integral, derivative memory and output. *)

val set_gains : t -> gains -> unit
(** Retune in place (bumpless: state is kept). *)
