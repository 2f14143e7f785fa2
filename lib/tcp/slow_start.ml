type view = {
  now : unit -> Sim.Time.t;
  mss : int;
  cwnd : unit -> float;
  ssthresh : unit -> float;
  flight : unit -> int;
  snd_una : unit -> int;
  snd_nxt : unit -> int;
  srtt : unit -> Sim.Time.t option;
  min_rtt : unit -> Sim.Time.t option;
  ifq_occupancy : unit -> int;
  ifq_capacity : unit -> int;
}

type decision = { cwnd_delta : float; exit_slow_start : bool }

type t = {
  name : string;
  on_ack : view -> newly_acked:int -> rtt_sample:Sim.Time.t option -> decision;
  reset : unit -> unit;
}

let no_exit delta = { cwnd_delta = delta; exit_slow_start = false }

let standard () =
  let on_ack view ~newly_acked:_ ~rtt_sample:_ =
    no_exit (float_of_int view.mss)
  in
  { name = "standard"; on_ack; reset = (fun () -> ()) }

let abc ?(l_limit = 2) () =
  let on_ack view ~newly_acked ~rtt_sample:_ =
    no_exit (float_of_int (Int.min newly_acked (l_limit * view.mss)))
  in
  { name = "abc"; on_ack; reset = (fun () -> ()) }

let limited ?(max_ssthresh_segments = 100) () =
  let on_ack view ~newly_acked:_ ~rtt_sample:_ =
    let mss = float_of_int view.mss in
    let max_ssthresh = float_of_int max_ssthresh_segments *. mss in
    let cwnd = view.cwnd () in
    if cwnd <= max_ssthresh then no_exit mss
    else begin
      (* RFC 3742: K = int(cwnd / (0.5 max_ssthresh)), increment MSS/K,
         capping growth at max_ssthresh/2 segments per RTT. *)
      let k = Float.ceil (cwnd /. (0.5 *. max_ssthresh)) in
      no_exit (mss /. k)
    end
  in
  { name = "limited"; on_ack; reset = (fun () -> ()) }

let hystart ?(ack_train_threshold = Sim.Time.ms 2) ?(min_samples = 8) () =
  let round_end = ref 0 in
  let round_start_time = ref Sim.Time.zero in
  let last_ack_time = ref Sim.Time.zero in
  let round_min_rtt = ref None in
  let samples_in_round = ref 0 in
  let in_round = ref false in
  let reset () =
    round_end := 0;
    round_min_rtt := None;
    samples_in_round := 0;
    in_round := false
  in
  let eta base =
    (* Delay threshold: clamp(min_rtt/8, 4ms, 16ms). *)
    Sim.Time.min (Sim.Time.ms 16)
      (Sim.Time.max (Sim.Time.ms 4) (Sim.Time.scale base 0.125))
  in
  let on_ack view ~newly_acked:_ ~rtt_sample =
    let now = view.now () in
    (* Round bookkeeping: a round ends when the ACK point reaches where
       snd_nxt stood at the round's start. *)
    if (not !in_round) || view.snd_una () >= !round_end then begin
      in_round := true;
      round_end := view.snd_nxt ();
      round_start_time := now;
      round_min_rtt := None;
      samples_in_round := 0;
      last_ack_time := now
    end;
    let exit_train =
      (* Closely-spaced ACKs: the train's span measures delivered pipe.
         Once it covers half the base RTT, the window fills the path. *)
      let gap = Sim.Time.sub now !last_ack_time in
      last_ack_time := now;
      match view.min_rtt () with
      | Some base when Sim.Time.(gap <= ack_train_threshold) ->
          let span = Sim.Time.sub now !round_start_time in
          Sim.Time.(span >= Sim.Time.scale base 0.5)
      | Some _ | None -> false
    in
    let exit_delay =
      match rtt_sample with
      | None -> false
      | Some r ->
          incr samples_in_round;
          (round_min_rtt :=
             match !round_min_rtt with
             | None -> Some r
             | Some m -> Some (Sim.Time.min m r));
          if !samples_in_round < min_samples then false
          else
            (match (view.min_rtt (), !round_min_rtt) with
            | Some base, Some current ->
                Sim.Time.(current >= Sim.Time.add base (eta base))
            | _ -> false)
    in
    {
      cwnd_delta = float_of_int view.mss;
      exit_slow_start = exit_train || exit_delay;
    }
  in
  { name = "hystart"; on_ack; reset }

(* SSthreshless Start (arXiv 1401.7146 idea): exit slow-start on the
   *measured* path instead of an arbitrary initial ssthresh. Growth is
   exponential; each RTT round tracks its minimum RTT sample, and once
   enough samples show queuing delay above [queue_fraction]·base the
   pipe is full — the window is trimmed onto the BDP estimate
   cwnd·base/current and the connection moves to congestion avoidance.
   Both the ssthresh-too-high overshoot and the ssthresh-too-low
   undershoot of standard slow-start on long-fat paths disappear. *)
let ssthreshless ?(queue_fraction = 0.25) ?(min_samples = 4) () =
  (* Consecutive inflated samples, not a per-round minimum: the round in
     which the queue first builds always opens with un-inflated samples,
     so a round-min detector would let overflow loss win the race to the
     slow-start exit. A run of [min_samples] back-to-back queued ACKs is
     immune to isolated delayed-ACK noise yet fires mid-round, before
     the buffer fills. *)
  let consec = ref 0 in
  let reset () = consec := 0 in
  let on_ack view ~newly_acked:_ ~rtt_sample =
    let mss = float_of_int view.mss in
    match (rtt_sample, view.min_rtt ()) with
    | Some r, Some base when Sim.Time.is_positive base ->
        let queued =
          Sim.Time.to_sec r -. Sim.Time.to_sec base
          > queue_fraction *. Sim.Time.to_sec base
        in
        if queued then incr consec else consec := 0;
        if !consec >= min_samples then begin
          consec := 0;
          let target =
            view.cwnd () *. Sim.Time.to_sec base /. Sim.Time.to_sec r
          in
          { cwnd_delta = target -. view.cwnd (); exit_slow_start = true }
        end
        else no_exit mss
    | _ -> no_exit mss
  in
  { name = "ssthreshless"; on_ack; reset }

type restricted_config = {
  gains : Control.Pid.gains;
  setpoint_fraction : float;
  max_step_segments : float;
  sample_min_interval : Sim.Time.t;
}

let default_restricted_config =
  {
    (* For the plant seen by the controller — IFQ occupancy responding
       to an absolute window command with one-RTT transport delay — the
       ultimate point on the calibration path (60 ms RTT) is Kc ≈ 1,
       Tc ≈ 2·RTT = 0.12 s (bench e6 re-measures it with the in-repo ZN
       autotuner). Through the paper's rule Kp = 0.33·Kc, Ti = 0.5·Tc,
       Td = 0.33·Tc: *)
    gains = Control.Pid.pid ~kp:0.33 ~ti:0.06 ~td:0.04;
    setpoint_fraction = 0.9;
    max_step_segments = 8.;
    sample_min_interval = Sim.Time.ms 1;
  }

(* Shared core of the PID policies. [pre_step] runs before each
   controller step and may retune gains (gain scheduling). *)
let pid_policy ~name ~config ~pre_step =
  let controller =
    Control.Pid.create
      (Control.Pid.config ~out_min:0. ~out_max:1e9
         ~derivative_filter:(Sim.Time.to_sec config.sample_min_interval *. 2.)
         config.gains)
  in
  let last_step = ref None in
  let reset () =
    Control.Pid.reset controller;
    last_step := None
  in
  let on_ack view ~newly_acked:_ ~rtt_sample:_ =
    pre_step view controller;
    let now = view.now () in
    let due =
      match !last_step with
      | None -> true
      | Some prev ->
          Sim.Time.(Sim.Time.sub now prev >= config.sample_min_interval)
    in
    (* Window validation (RFC 2861 spirit): when the application, not
       cwnd, limits sending, the IFQ carries no information about the
       path — stepping the controller would only wind it up. *)
    let app_limited =
      float_of_int (view.flight ())
      < view.cwnd () -. (4. *. float_of_int view.mss)
    in
    if (not due) || app_limited then begin
      if app_limited then last_step := Some now;
      no_exit 0.
    end
    else begin
      let dt =
        match !last_step with
        | None -> Sim.Time.to_sec config.sample_min_interval
        | Some prev -> Sim.Time.to_sec (Sim.Time.sub now prev)
      in
      last_step := Some now;
      let setpoint =
        config.setpoint_fraction *. float_of_int (view.ifq_capacity ())
      in
      let error = setpoint -. float_of_int (view.ifq_occupancy ()) in
      let target_segments = Control.Pid.step controller ~dt ~error in
      let mss = float_of_int view.mss in
      let delta = (target_segments *. mss) -. view.cwnd () in
      let step_cap = config.max_step_segments *. mss in
      no_exit (Float.max (-.step_cap) (Float.min step_cap delta))
    end
  in
  { name; on_ack; reset }

(* The PID output is the *window itself*, in segments ("an output that
   determines the new value of the sender window", §3). The plant has
   no integrator from the controller's viewpoint — occupancy tracks the
   commanded window (minus the pipe's BDP, delayed one RTT) — so the
   controller's own integral term performs the ramp-up and then holds
   the bias that keeps the IFQ at its set point, while P and D regulate
   deviations. Per-step window moves are clamped to ±max_step segments
   to bound bursts into the IFQ. *)
let restricted ?(config = default_restricted_config) () =
  pid_policy ~name:"restricted" ~config ~pre_step:(fun _ _ -> ())

(* Gain-scheduled variant: Ti and Td track the measured base RTT via the
   linearized critical point (Tc = 2·RTT; the paper's rule then gives
   Ti = 0.5·Tc = RTT and Td = 0.33·Tc = 0.66·RTT). Retuning is bumpless:
   only the gain record changes, controller state is preserved. *)
let restricted_adaptive ?(config = default_restricted_config) () =
  let current = ref config.gains in
  let pre_step view controller =
    match view.min_rtt () with
    | None -> ()
    | Some rtt ->
        let rtt_s = Sim.Time.to_sec rtt in
        let target =
          { !current with Control.Pid.ti = rtt_s; td = 0.66 *. rtt_s }
        in
        let differs a b = Float.abs (a -. b) > 0.2 *. Float.max a b in
        if
          differs target.Control.Pid.ti !current.Control.Pid.ti
          || differs target.Control.Pid.td !current.Control.Pid.td
        then begin
          current := target;
          Control.Pid.set_gains controller target
        end
  in
  pid_policy ~name:"restricted-adaptive" ~config ~pre_step

let commanded ~target_segments =
  let on_ack view ~newly_acked:_ ~rtt_sample:_ =
    let target = !target_segments *. float_of_int view.mss in
    no_exit (target -. view.cwnd ())
  in
  { name = "commanded"; on_ack; reset = (fun () -> ()) }
