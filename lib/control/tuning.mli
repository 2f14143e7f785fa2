(** Controller tuning rules mapping the critical point (ultimate gain
    [kc], ultimate period [tc]) to PID gains. *)

type critical_point = { kc : float; tc : float }

val pp_critical : Format.formatter -> critical_point -> unit

val zn_pi : critical_point -> Pid.gains
(** Classic ZN PI: Kp = 0.45·Kc, Ti = Tc/1.2. *)

val zn_pid : critical_point -> Pid.gains
(** Classic ZN PID: Kp = 0.6·Kc, Ti = 0.5·Tc, Td = 0.125·Tc. *)

val paper_pid : critical_point -> Pid.gains
(** The rule used by Allcock et al. (§3):
    Kp = 0.33·Kc, Ti = 0.5·Tc, Td = 0.33·Tc — a softer proportional
    gain and stronger derivative action than classic ZN, appropriate for
    a plant where overshoot (queue overflow) is the failure mode. *)

val tyreus_luyben : critical_point -> Pid.gains
(** Conservative alternative: Kp = 0.454·Kc, Ti = 2.2·Tc, Td = Tc/6.3. *)

val pessen : critical_point -> Pid.gains
(** Pessen integral rule (fast set-point tracking):
    Kp = 0.7·Kc, Ti = 0.4·Tc, Td = 0.15·Tc. *)
