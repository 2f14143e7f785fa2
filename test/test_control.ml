(* PID, plants, oscillation detection, ZN and relay autotuning. *)

let close ?(eps = 1e-6) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let test_p_only_proportional () =
  let pid = Control.Pid.create (Control.Pid.config (Control.Pid.p_only 2.)) in
  close "P output" 6. (Control.Pid.step pid ~dt:0.1 ~error:3.);
  close "P output follows error" (-4.) (Control.Pid.step pid ~dt:0.1 ~error:(-2.));
  close "output accessor" (-4.) (Control.Pid.output pid)

let test_integral_accumulates () =
  let pid =
    Control.Pid.create
      (Control.Pid.config (Control.Pid.pi ~kp:1. ~ti:1.))
  in
  (* Constant error 1: after n steps of dt, I-term = n·dt. *)
  let out1 = Control.Pid.step pid ~dt:0.5 ~error:1. in
  close "first step: P=1, I=0.5" 1.5 out1;
  let out2 = Control.Pid.step pid ~dt:0.5 ~error:1. in
  close "second step: P=1, I=1.0" 2. out2;
  close "integral accessor" 1. (Control.Pid.integral pid)

let test_derivative_kicks () =
  let pid =
    Control.Pid.create
      (Control.Pid.config (Control.Pid.pid ~kp:1. ~ti:infinity ~td:1.))
  in
  ignore (Control.Pid.step pid ~dt:1. ~error:0.);
  (* Error jumps 0 -> 2 over dt=1: derivative = 2, output = 2 + 1·2. *)
  close "derivative term" 4. (Control.Pid.step pid ~dt:1. ~error:2.)

let test_output_clamp_and_antiwindup () =
  let pid =
    Control.Pid.create
      (Control.Pid.config ~out_min:(-1.) ~out_max:1.
         (Control.Pid.pi ~kp:1. ~ti:0.1))
  in
  for _ = 1 to 100 do
    let o = Control.Pid.step pid ~dt:0.1 ~error:10. in
    if o > 1. || o < -1. then Alcotest.failf "clamp violated: %f" o
  done;
  (* Anti-windup: the integral must not have grown unboundedly; on error
     reversal the output should leave saturation quickly. *)
  let recovered = ref false in
  for _ = 1 to 5 do
    if Control.Pid.step pid ~dt:0.1 ~error:(-10.) < 1. then recovered := true
  done;
  Alcotest.(check bool) "desaturates promptly" true !recovered

let test_reset () =
  let pid =
    Control.Pid.create (Control.Pid.config (Control.Pid.pi ~kp:1. ~ti:1.))
  in
  ignore (Control.Pid.step pid ~dt:1. ~error:5.);
  Control.Pid.reset pid;
  close "integral cleared" 0. (Control.Pid.integral pid);
  close "output cleared" 0. (Control.Pid.output pid)

let test_invalid_config () =
  Alcotest.check_raises "out_min > out_max"
    (Invalid_argument "Pid.config: out_min > out_max") (fun () ->
      ignore
        (Control.Pid.config ~out_min:1. ~out_max:0. (Control.Pid.p_only 1.)));
  let pid = Control.Pid.create (Control.Pid.config (Control.Pid.p_only 1.)) in
  Alcotest.check_raises "non-positive dt"
    (Invalid_argument "Pid.step: dt must be positive") (fun () ->
      ignore (Control.Pid.step pid ~dt:0. ~error:1.))

(* --- plants ----------------------------------------------------------- *)

let test_first_order_step_response () =
  let p = Plant.first_order ~gain:2. ~tau:1. in
  (* Step input u=1: y(t) = 2(1 - e^{-t}). *)
  let y = ref 0. in
  for _ = 1 to 100 do
    y := Plant.step p ~dt:0.01 ~u:1.
  done;
  close ~eps:0.02 "y(1) = 2(1-1/e)" (2. *. (1. -. Float.exp (-1.))) !y;
  for _ = 1 to 900 do
    y := Plant.step p ~dt:0.01 ~u:1.
  done;
  close ~eps:0.01 "settles at static gain" 2. !y

let test_integrator () =
  let p = Plant.integrator ~gain:3. in
  ignore (Plant.step p ~dt:0.5 ~u:2.);
  close "integrates u·dt·gain" 3. (Plant.output p);
  Plant.reset p;
  close "reset" 0. (Plant.output p)

let test_dead_time () =
  let p =
    Plant.first_order_dead_time ~gain:1. ~tau:0.05 ~dead_time:0.5
      ~dt_hint:0.1
  in
  (* Until the dead time elapses the output barely moves. *)
  let y_early = ref 0. in
  for _ = 1 to 4 do
    y_early := Plant.step p ~dt:0.1 ~u:1.
  done;
  Alcotest.(check bool) "silent during dead time" true (!y_early < 0.05);
  let y_late = ref 0. in
  for _ = 1 to 20 do
    y_late := Plant.step p ~dt:0.1 ~u:1.
  done;
  Alcotest.(check bool) "responds after dead time" true (!y_late > 0.9)

let test_second_order_overshoot () =
  let p = Plant.second_order ~gain:1. ~omega:10. ~zeta:0.2 in
  let peak = ref 0. in
  for _ = 1 to 2000 do
    let y = Plant.step p ~dt:0.001 ~u:1. in
    if y > !peak then peak := y
  done;
  (* ζ=0.2 → overshoot ≈ 52.7 %. *)
  Alcotest.(check bool) "underdamped overshoot" true
    (!peak > 1.3 && !peak < 1.7)

(* --- oscillation detection -------------------------------------------- *)

let sine ~amp ~period ~decay n dt =
  Array.init n (fun i ->
      let t = float_of_int i *. dt in
      amp *. Float.exp (decay *. t) *. Float.sin (2. *. Float.pi *. t /. period))

let test_detect_sustained () =
  let samples = sine ~amp:5. ~period:1. ~decay:0. 2000 0.01 in
  match Control.Oscillation.analyze ~dt:0.01 samples with
  | Control.Oscillation.Sustained { period; amplitude } ->
      close ~eps:0.05 "period" 1. period;
      Alcotest.(check bool) "amplitude" true (Float.abs (amplitude -. 5.) < 0.5)
  | v ->
      Alcotest.failf "expected sustained, got %a" Control.Oscillation.pp_verdict
        v |> ignore

let test_detect_damped () =
  let samples = sine ~amp:5. ~period:1. ~decay:(-0.5) 2000 0.01 in
  match Control.Oscillation.analyze ~dt:0.01 samples with
  | Control.Oscillation.Damped -> ()
  | v ->
      Alcotest.failf "expected damped, got %a" Control.Oscillation.pp_verdict v
      |> ignore

let test_detect_diverging () =
  let samples = sine ~amp:0.5 ~period:1. ~decay:0.4 2000 0.01 in
  match Control.Oscillation.analyze ~dt:0.01 samples with
  | Control.Oscillation.Diverging -> ()
  | v ->
      Alcotest.failf "expected diverging, got %a" Control.Oscillation.pp_verdict
        v |> ignore

let test_min_amplitude_filters_noise () =
  let samples =
    Array.init 2000 (fun i -> if i mod 2 = 0 then 0.1 else -0.1)
  in
  match Control.Oscillation.analyze ~min_amplitude:1. ~dt:0.01 samples with
  | Control.Oscillation.Damped -> ()
  | v ->
      Alcotest.failf "noise should read damped, got %a"
        Control.Oscillation.pp_verdict v |> ignore

let test_flat_signal () =
  let samples = Array.make 100 3. in
  match Control.Oscillation.analyze ~dt:0.01 samples with
  | Control.Oscillation.Damped -> ()
  | v ->
      Alcotest.failf "flat should be damped, got %a"
        Control.Oscillation.pp_verdict v |> ignore

(* --- tuning rules ------------------------------------------------------ *)

let test_tuning_rules () =
  let c = { Control.Tuning.kc = 10.; tc = 2. } in
  let paper = Control.Tuning.paper_pid c in
  close "paper Kp" 3.3 paper.Control.Pid.kp;
  close "paper Ti" 1. paper.Control.Pid.ti;
  close "paper Td" 0.66 paper.Control.Pid.td;
  let zn = Control.Tuning.zn_pid c in
  close "zn Kp" 6. zn.Control.Pid.kp;
  close "zn Ti" 1. zn.Control.Pid.ti;
  close "zn Td" 0.25 zn.Control.Pid.td

(* --- Ziegler–Nichols on a known plant ---------------------------------- *)

(* FOPDT: P-control goes unstable at a finite gain, the textbook ZN
   subject. gain 1, tau 1, dead time 0.4: Kc ≈ 4.1, Tc ≈ 1.5 or so. *)
let fopdt () =
  let p =
    Plant.first_order_dead_time ~gain:1. ~tau:1. ~dead_time:0.4
      ~dt_hint:0.02
  in
  fun ~dt ~u -> Plant.step p ~dt ~u

let test_zn_finds_critical_point () =
  match
    Control.Ziegler_nichols.ultimate_gain ~plant:fopdt ~setpoint:1. ~dt:0.02
      ~horizon:40. ()
  with
  | Error e -> Alcotest.failf "ZN failed: %s" e
  | Ok r ->
      let { Control.Tuning.kc; tc } = r.Control.Ziegler_nichols.critical in
      Alcotest.(check bool) "Kc in plausible range" true (kc > 2. && kc < 8.);
      Alcotest.(check bool) "Tc in plausible range" true (tc > 0.8 && tc < 2.5);
      Alcotest.(check bool) "probes recorded" true
        (List.length r.Control.Ziegler_nichols.runs > 3)

let test_zn_tuned_loop_is_stable () =
  match
    Control.Ziegler_nichols.ultimate_gain ~plant:fopdt ~setpoint:1. ~dt:0.02
      ~horizon:40. ()
  with
  | Error e -> Alcotest.failf "ZN failed: %s" e
  | Ok r ->
      let gains = Control.Tuning.zn_pid r.Control.Ziegler_nichols.critical in
      let pid = Control.Pid.create (Control.Pid.config gains) in
      let plant = fopdt () in
      let y = ref 0. in
      let worst_late_error = ref 0. in
      for i = 1 to 3000 do
        let u = Control.Pid.step pid ~dt:0.02 ~error:(1. -. !y) in
        y := plant ~dt:0.02 ~u;
        if i > 2500 then
          worst_late_error := Float.max !worst_late_error (Float.abs (1. -. !y))
      done;
      Alcotest.(check bool) "settles near set point" true
        (!worst_late_error < 0.2)

let test_zn_no_instability_error () =
  (* A first-order plant under P control only destabilizes through the
     sampling period itself (around kp ≈ 2·tau/dt = 40 here); capping
     the sweep below that must yield a clean "no instability" error. *)
  let plant () =
    let p = Plant.first_order ~gain:1. ~tau:1. in
    fun ~dt ~u -> Plant.step p ~dt ~u
  in
  match
    Control.Ziegler_nichols.ultimate_gain ~plant ~setpoint:1. ~dt:0.05
      ~horizon:20. ~kp_max:20. ()
  with
  | Error _ -> ()
  | Ok r ->
      Alcotest.failf "expected failure, got Kc=%f"
        r.Control.Ziegler_nichols.critical.Control.Tuning.kc

let suite =
  [
    Alcotest.test_case "P proportionality" `Quick test_p_only_proportional;
    Alcotest.test_case "I accumulates" `Quick test_integral_accumulates;
    Alcotest.test_case "D kicks on change" `Quick test_derivative_kicks;
    Alcotest.test_case "clamp + anti-windup" `Quick
      test_output_clamp_and_antiwindup;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
    Alcotest.test_case "first-order step response" `Quick
      test_first_order_step_response;
    Alcotest.test_case "integrator" `Quick test_integrator;
    Alcotest.test_case "dead time" `Quick test_dead_time;
    Alcotest.test_case "second-order overshoot" `Quick
      test_second_order_overshoot;
    Alcotest.test_case "detect sustained" `Quick test_detect_sustained;
    Alcotest.test_case "detect damped" `Quick test_detect_damped;
    Alcotest.test_case "detect diverging" `Quick test_detect_diverging;
    Alcotest.test_case "min_amplitude filters noise" `Quick
      test_min_amplitude_filters_noise;
    Alcotest.test_case "flat signal" `Quick test_flat_signal;
    Alcotest.test_case "tuning rules" `Quick test_tuning_rules;
    Alcotest.test_case "ZN finds critical point" `Slow
      test_zn_finds_critical_point;
    Alcotest.test_case "ZN-tuned loop stable" `Slow test_zn_tuned_loop_is_stable;
    Alcotest.test_case "ZN reports no instability" `Quick
      test_zn_no_instability_error;
  ]
