(* Slow-start policy units, driven by a fabricated sender view. *)

let mss = 1460

let make_view ?(cwnd = ref (2. *. 1460.)) ?(ifq_occ = ref 0)
    ?(ifq_cap = 100) ?(now = ref Sim.Time.zero) ?(snd_una = ref 0)
    ?(snd_nxt = ref 0) ?(min_rtt = ref None) () : Tcp.Slow_start.view =
  {
    Tcp.Slow_start.now = (fun () -> !now);
    mss;
    cwnd = (fun () -> !cwnd);
    ssthresh = (fun () -> infinity);
    flight = (fun () -> !snd_nxt - !snd_una);
    snd_una = (fun () -> !snd_una);
    snd_nxt = (fun () -> !snd_nxt);
    srtt = (fun () -> !min_rtt);
    min_rtt = (fun () -> !min_rtt);
    ifq_occupancy = (fun () -> !ifq_occ);
    ifq_capacity = (fun () -> ifq_cap);
  }

let test_standard_increment () =
  let ss = Tcp.Slow_start.standard () in
  let view = make_view () in
  let d = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
  Alcotest.(check (float 0.)) "one MSS per ACK" (float_of_int mss)
    d.Tcp.Slow_start.cwnd_delta;
  Alcotest.(check bool) "never exits voluntarily" false
    d.Tcp.Slow_start.exit_slow_start

let test_abc_byte_counting () =
  let ss = Tcp.Slow_start.abc () in
  let view = make_view () in
  (* A delayed ACK covering two segments grows the window by both. *)
  let d =
    ss.Tcp.Slow_start.on_ack view ~newly_acked:(2 * mss) ~rtt_sample:None
  in
  Alcotest.(check (float 0.)) "counts bytes" (float_of_int (2 * mss))
    d.Tcp.Slow_start.cwnd_delta;
  (* A stretch ACK covering ten segments is capped at L=2. *)
  let d2 =
    ss.Tcp.Slow_start.on_ack view ~newly_acked:(10 * mss) ~rtt_sample:None
  in
  Alcotest.(check (float 0.)) "L-limit" (float_of_int (2 * mss))
    d2.Tcp.Slow_start.cwnd_delta;
  (* Partial-segment ACKs count exactly. *)
  let d3 = ss.Tcp.Slow_start.on_ack view ~newly_acked:700 ~rtt_sample:None in
  Alcotest.(check (float 0.)) "partial bytes" 700. d3.Tcp.Slow_start.cwnd_delta

let test_limited_taper () =
  let ss = Tcp.Slow_start.limited ~max_ssthresh_segments:100 () in
  let cwnd = ref (50. *. float_of_int mss) in
  let view = make_view ~cwnd () in
  let d1 = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
  Alcotest.(check (float 0.)) "below max_ssthresh: full MSS"
    (float_of_int mss) d1.Tcp.Slow_start.cwnd_delta;
  cwnd := 200. *. float_of_int mss;
  let d2 = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
  (* K = ceil(200/50) = 4 → MSS/4. *)
  Alcotest.(check (float 1e-6)) "tapered" (float_of_int mss /. 4.)
    d2.Tcp.Slow_start.cwnd_delta;
  cwnd := 400. *. float_of_int mss;
  let d3 = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
  Alcotest.(check (float 1e-6)) "more taper" (float_of_int mss /. 8.)
    d3.Tcp.Slow_start.cwnd_delta

let test_hystart_delay_exit () =
  let ss = Tcp.Slow_start.hystart ~min_samples:4 () in
  let now = ref Sim.Time.zero in
  let snd_una = ref 0 and snd_nxt = ref (8 * mss) in
  let min_rtt = ref (Some (Sim.Time.ms 60)) in
  let view = make_view ~now ~snd_una ~snd_nxt ~min_rtt () in
  (* Feed RTT samples far above base + eta (60/8 = 7.5ms): exits once it
     has enough samples in the round. *)
  let exited = ref false in
  for i = 1 to 6 do
    now := Sim.Time.ms (i * 10);
    snd_una := !snd_una + mss;
    let d =
      ss.Tcp.Slow_start.on_ack view ~newly_acked:mss
        ~rtt_sample:(Some (Sim.Time.ms 100))
    in
    if d.Tcp.Slow_start.exit_slow_start then exited := true
  done;
  Alcotest.(check bool) "delay-increase exit" true !exited

let test_hystart_no_exit_flat_rtt () =
  let ss = Tcp.Slow_start.hystart ~min_samples:4 () in
  let now = ref Sim.Time.zero in
  let snd_una = ref 0 and snd_nxt = ref (100 * mss) in
  let min_rtt = ref (Some (Sim.Time.ms 60)) in
  let view = make_view ~now ~snd_una ~snd_nxt ~min_rtt () in
  let exited = ref false in
  for i = 1 to 8 do
    (* ACKs 10 ms apart: too sparse for the train detector, and RTT
       stays at the base: no exit. *)
    now := Sim.Time.ms (i * 10);
    snd_una := !snd_una + mss;
    let d =
      ss.Tcp.Slow_start.on_ack view ~newly_acked:mss
        ~rtt_sample:(Some (Sim.Time.ms 60))
    in
    if d.Tcp.Slow_start.exit_slow_start then exited := true
  done;
  Alcotest.(check bool) "no exit at base RTT" false !exited

let test_hystart_ack_train_exit () =
  let ss = Tcp.Slow_start.hystart () in
  let now = ref Sim.Time.zero in
  let snd_una = ref 0 and snd_nxt = ref (1000 * mss) in
  let min_rtt = ref (Some (Sim.Time.ms 10)) in
  let view = make_view ~now ~snd_una ~snd_nxt ~min_rtt () in
  (* ACKs 1 ms apart (within the 2 ms train threshold); after 5 ms the
     train spans min_rtt/2. *)
  let exited = ref false in
  for i = 1 to 8 do
    now := Sim.Time.ms i;
    snd_una := !snd_una + mss;
    let d = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
    if d.Tcp.Slow_start.exit_slow_start then exited := true
  done;
  Alcotest.(check bool) "ACK-train exit" true !exited

let test_ssthreshless_grows_without_queuing () =
  let ss = Tcp.Slow_start.ssthreshless () in
  let min_rtt = ref (Some (Sim.Time.ms 60)) in
  let view = make_view ~min_rtt () in
  (* RTT pinned at the base: exponential growth, no exit. *)
  for _ = 1 to 20 do
    let d =
      ss.Tcp.Slow_start.on_ack view ~newly_acked:mss
        ~rtt_sample:(Some (Sim.Time.ms 60))
    in
    Alcotest.(check (float 0.)) "one MSS per ACK" (float_of_int mss)
      d.Tcp.Slow_start.cwnd_delta;
    Alcotest.(check bool) "no exit at base RTT" false
      d.Tcp.Slow_start.exit_slow_start
  done

let test_ssthreshless_exits_on_sustained_queuing () =
  let ss = Tcp.Slow_start.ssthreshless ~min_samples:4 () in
  let cwnd = ref (100. *. float_of_int mss) in
  let min_rtt = ref (Some (Sim.Time.ms 60)) in
  let view = make_view ~cwnd ~min_rtt () in
  (* Three queued samples (RTT 100 ms >> 60·1.25 = 75 ms), one back at
     the base — the run restarts, no exit. *)
  for _ = 1 to 3 do
    let d =
      ss.Tcp.Slow_start.on_ack view ~newly_acked:mss
        ~rtt_sample:(Some (Sim.Time.ms 100))
    in
    Alcotest.(check bool) "below min_samples" false
      d.Tcp.Slow_start.exit_slow_start
  done;
  let d =
    ss.Tcp.Slow_start.on_ack view ~newly_acked:mss
      ~rtt_sample:(Some (Sim.Time.ms 60))
  in
  Alcotest.(check bool) "noise resets the run" false
    d.Tcp.Slow_start.exit_slow_start;
  (* Four consecutive queued samples: exit, trimmed to the BDP
     estimate cwnd·base/current = 100·0.6 = 60 segments. *)
  let exit_d = ref None in
  for _ = 1 to 4 do
    let d =
      ss.Tcp.Slow_start.on_ack view ~newly_acked:mss
        ~rtt_sample:(Some (Sim.Time.ms 100))
    in
    if d.Tcp.Slow_start.exit_slow_start then exit_d := Some d
  done;
  match !exit_d with
  | None -> Alcotest.fail "no exit after min_samples queued ACKs"
  | Some d ->
      Alcotest.(check (float 1.)) "trimmed to the BDP estimate"
        ((60. -. 100.) *. float_of_int mss)
        d.Tcp.Slow_start.cwnd_delta

let test_restricted_ramps_when_empty () =
  let ss = Tcp.Slow_start.restricted () in
  let now = ref Sim.Time.zero in
  let cwnd = ref (2. *. float_of_int mss) in
  let snd_nxt = ref (2 * mss) in
  (* flight tracks cwnd: the sender is cwnd-limited, so the window-
     validation guard stays out of the way. *)
  let view = make_view ~now ~cwnd ~snd_nxt () in
  (* Empty IFQ, error at max: the controller commands growth. *)
  let total = ref 0. in
  for i = 1 to 50 do
    now := Sim.Time.ms (2 * i);
    let d = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
    total := !total +. d.Tcp.Slow_start.cwnd_delta;
    cwnd := !cwnd +. d.Tcp.Slow_start.cwnd_delta;
    snd_nxt := int_of_float !cwnd
  done;
  Alcotest.(check bool) "window grew" true (!total > 10. *. float_of_int mss)

let test_restricted_freezes_when_app_limited () =
  let ss = Tcp.Slow_start.restricted () in
  let now = ref Sim.Time.zero in
  let cwnd = ref (100. *. float_of_int mss) in
  (* flight = 0 while cwnd is 100 segments: app-limited. *)
  let view = make_view ~now ~cwnd () in
  for i = 1 to 20 do
    now := Sim.Time.ms (2 * i);
    let d = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
    Alcotest.(check (float 0.)) "no window movement while app-limited" 0.
      d.Tcp.Slow_start.cwnd_delta
  done

let test_restricted_backs_off_above_setpoint () =
  let ss = Tcp.Slow_start.restricted () in
  let now = ref Sim.Time.zero in
  let cwnd = ref (500. *. float_of_int mss) in
  let ifq_occ = ref 100 in
  let snd_nxt = ref (500 * mss) in
  let view = make_view ~now ~cwnd ~ifq_occ ~snd_nxt () in
  (* Occupancy pinned at capacity (above the 90 % set point): after the
     controller state settles the window must be pushed down. *)
  let last = ref 0. in
  for i = 1 to 200 do
    now := Sim.Time.ms (2 * i);
    let d = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
    last := d.Tcp.Slow_start.cwnd_delta;
    cwnd := Float.max (2. *. float_of_int mss) (!cwnd +. d.Tcp.Slow_start.cwnd_delta)
  done;
  Alcotest.(check bool) "negative pressure at overload" true (!last <= 0.)

let test_restricted_step_clamp () =
  let config =
    {
      Tcp.Slow_start.default_restricted_config with
      Tcp.Slow_start.max_step_segments = 4.;
    }
  in
  let ss = Tcp.Slow_start.restricted ~config () in
  let now = ref Sim.Time.zero in
  let cwnd = ref (2. *. float_of_int mss) in
  let snd_nxt = ref (2 * mss) in
  let view = make_view ~now ~cwnd ~snd_nxt () in
  for i = 1 to 100 do
    now := Sim.Time.ms (2 * i);
    let d = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
    let step_segments = d.Tcp.Slow_start.cwnd_delta /. float_of_int mss in
    if Float.abs step_segments > 4. +. 1e-9 then
      Alcotest.failf "step %f exceeds clamp" step_segments
  done

let test_restricted_sampling_gate () =
  let ss = Tcp.Slow_start.restricted () in
  let now = ref (Sim.Time.ms 10) in
  let view = make_view ~now () in
  ignore (ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None);
  (* A second ACK within the sampling interval must not step the PID. *)
  let d = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
  Alcotest.(check (float 0.)) "gated" 0. d.Tcp.Slow_start.cwnd_delta

let test_restricted_reset () =
  let ss = Tcp.Slow_start.restricted () in
  let now = ref (Sim.Time.ms 5) in
  let view = make_view ~now () in
  ignore (ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None);
  ss.Tcp.Slow_start.reset ();
  (* After reset the controller restarts from scratch: the first step
     equals a fresh policy's first step. *)
  let fresh = Tcp.Slow_start.restricted () in
  now := Sim.Time.ms 500;
  let d1 = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
  let d2 = fresh.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
  Alcotest.(check (float 1e-6)) "same as fresh" d2.Tcp.Slow_start.cwnd_delta
    d1.Tcp.Slow_start.cwnd_delta

let test_adaptive_reschedules () =
  let ss = Tcp.Slow_start.restricted_adaptive () in
  Alcotest.(check string) "name" "restricted-adaptive" ss.Tcp.Slow_start.name;
  (* Long-RTT path: the adaptive policy must ramp much slower than the
     fixed one, whose Ti is tuned for 60 ms. *)
  let ramp policy rtt_ms =
    let now = ref Sim.Time.zero in
    let cwnd = ref (2. *. float_of_int mss) in
    let snd_nxt = ref (2 * mss) in
    let min_rtt = ref (Some (Sim.Time.ms rtt_ms)) in
    let view = make_view ~now ~cwnd ~snd_nxt ~min_rtt () in
    for i = 1 to 200 do
      now := Sim.Time.ms (2 * i);
      let d =
        policy.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None
      in
      cwnd := !cwnd +. d.Tcp.Slow_start.cwnd_delta;
      snd_nxt := int_of_float !cwnd
    done;
    !cwnd
  in
  let fixed = ramp (Tcp.Slow_start.restricted ()) 240 in
  let adaptive = ramp (Tcp.Slow_start.restricted_adaptive ()) 240 in
  Alcotest.(check bool) "adaptive ramps slower on a 240ms path" true
    (adaptive < 0.7 *. fixed);
  (* On the tuning path both behave the same. *)
  let fixed60 = ramp (Tcp.Slow_start.restricted ()) 60 in
  let adaptive60 = ramp (Tcp.Slow_start.restricted_adaptive ()) 60 in
  Alcotest.(check bool) "similar at 60ms" true
    (Float.abs (adaptive60 -. fixed60) < 0.25 *. fixed60)

let test_commanded () =
  let target = ref 10. in
  let ss = Tcp.Slow_start.commanded ~target_segments:target in
  let cwnd = ref (2. *. float_of_int mss) in
  let view = make_view ~cwnd () in
  let d = ss.Tcp.Slow_start.on_ack view ~newly_acked:mss ~rtt_sample:None in
  Alcotest.(check (float 1e-6)) "snaps to target"
    ((10. -. 2.) *. float_of_int mss)
    d.Tcp.Slow_start.cwnd_delta

(* Every slow-start rule is a policy name on its own, paired with Reno. *)
let test_by_name () =
  List.iter
    (fun (name, _) ->
      match Tcp.Policy.by_name name with
      | Ok p ->
          Alcotest.(check string) "name" name
            p.Tcp.Policy.slow_start.Tcp.Slow_start.name;
          Alcotest.(check string) "with Reno" "reno"
            p.Tcp.Policy.cong_avoid.Tcp.Cong_avoid.name
      | Error e -> Alcotest.fail e)
    Tcp.Policy.slow_starts;
  Alcotest.(check (list string)) "every rule"
    [
      "standard"; "abc"; "limited"; "hystart"; "ssthreshless"; "restricted";
      "restricted-adaptive";
    ]
    (List.map fst Tcp.Policy.slow_starts);
  match Tcp.Policy.by_name "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted"

let suite =
  [
    Alcotest.test_case "standard increment" `Quick test_standard_increment;
    Alcotest.test_case "ABC byte counting (RFC 3465)" `Quick
      test_abc_byte_counting;
    Alcotest.test_case "limited taper (RFC 3742)" `Quick test_limited_taper;
    Alcotest.test_case "hystart delay exit" `Quick test_hystart_delay_exit;
    Alcotest.test_case "hystart stays at base RTT" `Quick
      test_hystart_no_exit_flat_rtt;
    Alcotest.test_case "hystart ACK-train exit" `Quick
      test_hystart_ack_train_exit;
    Alcotest.test_case "ssthreshless grows without queuing" `Quick
      test_ssthreshless_grows_without_queuing;
    Alcotest.test_case "ssthreshless exits on sustained queuing" `Quick
      test_ssthreshless_exits_on_sustained_queuing;
    Alcotest.test_case "restricted ramps on empty IFQ" `Quick
      test_restricted_ramps_when_empty;
    Alcotest.test_case "restricted freezes when app-limited" `Quick
      test_restricted_freezes_when_app_limited;
    Alcotest.test_case "restricted backs off over set point" `Quick
      test_restricted_backs_off_above_setpoint;
    Alcotest.test_case "restricted step clamp" `Quick test_restricted_step_clamp;
    Alcotest.test_case "restricted sampling gate" `Quick
      test_restricted_sampling_gate;
    Alcotest.test_case "restricted reset" `Quick test_restricted_reset;
    Alcotest.test_case "adaptive gain scheduling" `Quick
      test_adaptive_reschedules;
    Alcotest.test_case "commanded window" `Quick test_commanded;
    Alcotest.test_case "by_name" `Quick test_by_name;
  ]
