type gains = { kp : float; ti : float; td : float }

let p_only kp = { kp; ti = infinity; td = 0. }
let pid ~kp ~ti ~td = { kp; ti; td }

type config = {
  gains : gains;
  out_min : float;
  out_max : float;
  derivative_filter : float;
}

let config ?(out_min = neg_infinity) ?(out_max = infinity)
    ?(derivative_filter = 0.) gains =
  if out_min > out_max then invalid_arg "Pid.config: out_min > out_max";
  if derivative_filter < 0. then
    invalid_arg "Pid.config: negative derivative filter";
  { gains; out_min; out_max; derivative_filter }

type t = {
  cfg : config;
  mutable g : gains;
  mutable integ : float;       (* accumulated error·dt *)
  mutable prev_error : float option;
  mutable deriv_filtered : float;
  mutable last_output : float;
}

let create cfg =
  {
    cfg;
    g = cfg.gains;
    integ = 0.;
    prev_error = None;
    deriv_filtered = 0.;
    last_output = 0.;
  }

let clamp lo hi x = Float.max lo (Float.min hi x)

let step t ~dt ~error =
  if dt <= 0. then invalid_arg "Pid.step: dt must be positive";
  let { kp; ti; td } = t.g in
  (* Derivative of the error, filtered. *)
  let raw_deriv =
    match t.prev_error with
    | None -> 0.
    | Some prev -> (error -. prev) /. dt
  in
  let deriv =
    let tau = t.cfg.derivative_filter in
    if tau <= 0. then raw_deriv
    else begin
      let alpha = dt /. (tau +. dt) in
      t.deriv_filtered <- t.deriv_filtered +. (alpha *. (raw_deriv -. t.deriv_filtered));
      t.deriv_filtered
    end
  in
  let candidate_integral = t.integ +. (error *. dt) in
  let i_term g_integ = if ti = infinity then 0. else g_integ /. ti in
  let unclamped =
    kp *. (error +. i_term candidate_integral +. (td *. deriv))
  in
  let clamped = clamp t.cfg.out_min t.cfg.out_max unclamped in
  (* Conditional integration (anti-windup): only commit the new integral
     if the output is not saturated, or if integrating would drive it
     back toward the admissible range. *)
  let saturated_high = unclamped > t.cfg.out_max and
      saturated_low = unclamped < t.cfg.out_min in
  if
    (not (saturated_high || saturated_low))
    || (saturated_high && error < 0.)
    || (saturated_low && error > 0.)
  then t.integ <- candidate_integral;
  t.prev_error <- Some error;
  t.last_output <- clamped;
  clamped

let output t = t.last_output
let integral t = t.integ

let reset t =
  t.integ <- 0.;
  t.prev_error <- None;
  t.deriv_filtered <- 0.;
  t.last_output <- 0.

let set_gains t g = t.g <- g
