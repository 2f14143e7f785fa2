type critical_point = { kc : float; tc : float }

let pp_critical fmt { kc; tc } = Format.fprintf fmt "Kc=%.4g Tc=%.4g" kc tc

let zn_pid { kc; tc } =
  Pid.pid ~kp:(0.6 *. kc) ~ti:(0.5 *. tc) ~td:(0.125 *. tc)

let paper_pid { kc; tc } =
  Pid.pid ~kp:(0.33 *. kc) ~ti:(0.5 *. tc) ~td:(0.33 *. tc)

let tyreus_luyben { kc; tc } =
  Pid.pid ~kp:(0.454 *. kc) ~ti:(2.2 *. tc) ~td:(tc /. 6.3)
