type t = {
  config : Slow_start.restricted_config;
  controller : Control.Pid.t;
  ifq : Netsim.Ifq.t;
  mutable member_count : int;
  mutable total_segments : float;
  (* members' view aggregates, refreshed by each policy on its ACKs *)
  mutable last_flight_refresh : Sim.Time.t;
  mutable recent_flight : int;
  mutable recent_cwnd : float;
}

let create sched ~ifq ?(config = Slow_start.default_restricted_config) () =
  let t =
    {
      config;
      controller =
        Control.Pid.create
          (Control.Pid.config ~out_min:0. ~out_max:1e9
             ~derivative_filter:
               (2. *. Sim.Time.to_sec config.Slow_start.sample_min_interval)
             config.Slow_start.gains);
      ifq;
      member_count = 0;
      total_segments = 0.;
      last_flight_refresh = Sim.Scheduler.now sched;
      recent_flight = 0;
      recent_cwnd = 0.;
    }
  in
  let step () =
    (* Global window validation: hold when no member reported an ACK
       this interval (idle host) or the members jointly use well under
       the budget — an empty queue then says nothing about the path. *)
    let app_limited =
      t.recent_cwnd = 0.
      || float_of_int t.recent_flight < t.recent_cwnd *. 0.5
    in
    if not app_limited then begin
      let now = Sim.Scheduler.now sched in
      let dt =
        Float.max
          (Sim.Time.to_sec t.config.Slow_start.sample_min_interval)
          (Sim.Time.to_sec (Sim.Time.sub now t.last_flight_refresh))
      in
      t.last_flight_refresh <- now;
      let setpoint =
        t.config.Slow_start.setpoint_fraction
        *. float_of_int (Netsim.Ifq.capacity t.ifq)
      in
      let error = setpoint -. float_of_int (Netsim.Ifq.occupancy t.ifq) in
      t.total_segments <- Control.Pid.step t.controller ~dt ~error
    end;
    (* The aggregates decay so one silent member cannot freeze the
       host forever. *)
    t.recent_flight <- 0;
    t.recent_cwnd <- 0.
  in
  ignore
    (Sim.Scheduler.every sched t.config.Slow_start.sample_min_interval step);
  t

let members t = t.member_count
let commanded_window_segments t = t.total_segments

let policy t =
  t.member_count <- t.member_count + 1;
  let last_move = ref None in
  let on_ack (view : Slow_start.view) ~newly_acked ~rtt_sample:_ =
    (* Report our load to the shared controller. Flight is measured as
       it stood before this ACK (flight-now plus what it just covered) —
       at small windows flight-now dips to zero on every delayed ACK
       and would misread as application-limited. *)
    t.recent_flight <-
      t.recent_flight + view.Slow_start.flight () + newly_acked;
    t.recent_cwnd <- t.recent_cwnd +. view.Slow_start.cwnd ();
    (* ...and steer toward our share of the budget, at most one clamped
       move per sampling interval (the same burst bound solo RSS has:
       without it, every ACK moves the window and the effective slew
       rate scales with the ACK rate). *)
    let now = view.Slow_start.now () in
    let due =
      match !last_move with
      | None -> true
      | Some prev ->
          Sim.Time.(
            Sim.Time.sub now prev >= t.config.Slow_start.sample_min_interval)
    in
    if not due then { Slow_start.cwnd_delta = 0.; exit_slow_start = false }
    else begin
      last_move := Some now;
      let mss = float_of_int view.Slow_start.mss in
      let share =
        t.total_segments /. float_of_int (Int.max 1 t.member_count)
      in
      let delta = (share *. mss) -. view.Slow_start.cwnd () in
      (* Split the burst budget too: N members each moving max_step/N
         give the host the same aggregate slew rate as one solo RSS
         connection. *)
      let cap =
        t.config.Slow_start.max_step_segments *. mss
        /. float_of_int (Int.max 1 t.member_count)
      in
      {
        Slow_start.cwnd_delta = Float.max (-.cap) (Float.min cap delta);
        exit_slow_start = false;
      }
    end
  in
  {
    Slow_start.name = "restricted-shared";
    on_ack;
    reset = (fun () -> last_move := None);
  }
