(* Spec runs of the paper path, experiment drivers (short horizons to
   stay fast — the full horizons run in bench/) and the paper's headline
   claims at full horizon. *)

let short_spec ?(flow = Core.Spec.default_flow) slow_start =
  {
    Core.Spec.default with
    Core.Spec.name = slow_start;
    duration = Sim.Time.sec 3;
    sample_period = Sim.Time.ms 100;
    flows = [ { flow with Core.Spec.slow_start } ];
  }

let run_one spec = List.hd (Core.Spec.run spec).Core.Spec.results

let test_run_bulk_standard () =
  let r = run_one (short_spec "standard") in
  Alcotest.(check string) "label defaults to policy" "standard"
    r.Core.Spec.label;
  Alcotest.(check bool) "goodput positive" true (r.Core.Spec.goodput_mbps > 1.);
  Alcotest.(check bool) "utilization consistent" true
    (Float.abs (r.Core.Spec.utilization -. (r.Core.Spec.goodput_mbps /. 100.))
     < 1e-9);
  Alcotest.(check bool) "series populated" true
    (Sim.Stats.Series.length r.Core.Spec.cwnd_series > 20)

let test_run_bulk_restricted_beats_standard () =
  let std = run_one (short_spec "standard") in
  let rss = run_one (short_spec "restricted") in
  Alcotest.(check bool) "RSS ahead after 3s" true
    (rss.Core.Spec.goodput_mbps > std.Core.Spec.goodput_mbps);
  Alcotest.(check int) "RSS stall-free" 0 rss.Core.Spec.send_stalls

let test_run_completion () =
  let flow =
    {
      Core.Spec.default_flow with
      Core.Spec.workload = Core.Spec.Bulk { bytes = Some 100_000 };
    }
  in
  let r = run_one (short_spec ~flow "standard") in
  match r.Core.Spec.completion with
  | Some t -> Alcotest.(check bool) "completed quickly" true
                (Sim.Time.to_sec t < 1.)
  | None -> Alcotest.fail "transfer did not complete"

let test_run_determinism () =
  let a = run_one (short_spec "standard") in
  let b = run_one (short_spec "standard") in
  Alcotest.(check (float 0.)) "identical goodput" a.Core.Spec.goodput_mbps
    b.Core.Spec.goodput_mbps;
  Alcotest.(check int) "identical stalls" a.Core.Spec.send_stalls
    b.Core.Spec.send_stalls

let test_run_rejects_bogus_policy () =
  Alcotest.(check bool) "invalid_arg on bogus policy" true
    (try
       ignore (run_one (short_spec "bogus"));
       false
     with Invalid_argument _ -> true)

let test_fig1_short () =
  let r = Core.Experiments.Fig1.run ~duration:(Sim.Time.sec 3) () in
  let std = r.Core.Experiments.Fig1.standard in
  let rss = r.Core.Experiments.Fig1.restricted in
  Alcotest.(check bool) "standard stalls" true (std.Core.Spec.send_stalls >= 1);
  Alcotest.(check int) "RSS clean" 0 rss.Core.Spec.send_stalls;
  (* The stalls series is a cumulative counter: non-decreasing. *)
  let v = Sim.Stats.Series.values std.Core.Spec.stalls_series in
  let monotone = ref true in
  Array.iteri (fun i x -> if i > 0 && x < v.(i - 1) then monotone := false) v;
  Alcotest.(check bool) "cumulative monotone" true !monotone

let test_table1_short () =
  let rows = Core.Experiments.Table1.run ~durations:[ 3. ] () in
  match rows with
  | [ row ] ->
      Alcotest.(check bool) "improvement positive" true
        (row.Core.Experiments.Table1.improvement_pct > 0.)
  | _ -> Alcotest.fail "expected one row"

let test_variants_short () =
  let rows = Core.Experiments.Variants.run ~duration:(Sim.Time.sec 3) () in
  Alcotest.(check (list string)) "order and labels"
    [ "standard"; "abc"; "limited"; "hystart"; "restricted" ]
    (List.map (fun r -> r.Core.Spec.label) rows)

let test_ifq_sweep_short () =
  let rows =
    Core.Experiments.Ifq_sweep.run ~sizes:[ 50; 200 ]
      ~duration:(Sim.Time.sec 3) ()
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Core.Experiments.Ifq_sweep.row) ->
      Alcotest.(check bool) "RSS >= std on paper path" true
        (r.Core.Experiments.Ifq_sweep.restricted.Core.Spec.goodput_mbps
         >= 0.8
            *. r.Core.Experiments.Ifq_sweep.standard.Core.Spec.goodput_mbps))
    rows

let test_fairness_short () =
  let r = Core.Experiments.Fairness.run ~duration:(Sim.Time.sec 5) () in
  Alcotest.(check bool) "Jain in (0,1]" true
    (r.Core.Experiments.Fairness.jain_index > 0.
    && r.Core.Experiments.Fairness.jain_index <= 1.);
  Alcotest.(check bool) "both flows progress" true
    (r.Core.Experiments.Fairness.reno_mbps > 0.
    && r.Core.Experiments.Fairness.restricted_mbps > 0.)

let test_latency_experiment_short () =
  let rows = Core.Experiments.Latency.run ~duration:(Sim.Time.sec 5) () in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  (match rows with
  | std :: rss09 :: _ ->
      (* RSS's standing queue must show up as added one-way delay. *)
      Alcotest.(check bool) "rss delay above standard" true
        (rss09.Core.Experiments.Latency.mean_delay_ms
        > std.Core.Experiments.Latency.mean_delay_ms +. 5.);
      Alcotest.(check bool) "delays above propagation floor" true
        (std.Core.Experiments.Latency.mean_delay_ms >= 30.)
  | _ -> Alcotest.fail "unexpected row shape");
  (* Lower set points give monotonically lower delay. *)
  let delays =
    List.map (fun r -> r.Core.Experiments.Latency.mean_delay_ms) (List.tl rows)
  in
  Alcotest.(check bool) "set point orders delay" true
    (List.sort (fun a b -> compare b a) delays = delays)

let test_calibrate_plant_responds () =
  let plant = Core.Calibrate.sim_plant () () in
  (* Tiny window: IFQ stays empty. *)
  let y_small = plant ~dt:0.5 ~u:4. in
  Alcotest.(check (float 1.)) "empty at small window" 0. y_small;
  (* Large window: the queue must fill (BDP 500 + slack). *)
  let y = ref 0. in
  for _ = 1 to 6 do
    y := plant ~dt:0.5 ~u:700.
  done;
  Alcotest.(check bool) "queue builds at big window" true (!y > 50.)

let test_tuned_config () =
  let cfg =
    Core.Calibrate.tuned_config { Control.Tuning.kc = 1.; tc = 0.12 }
  in
  Alcotest.(check (float 1e-9)) "paper rule Kp" 0.33
    cfg.Tcp.Slow_start.gains.Control.Pid.kp;
  Alcotest.(check (float 1e-9)) "paper rule Ti" 0.06
    cfg.Tcp.Slow_start.gains.Control.Pid.ti;
  Alcotest.(check (float 1e-9)) "setpoint fraction" 0.9
    cfg.Tcp.Slow_start.setpoint_fraction

(* The paper's headline claims at full horizon. §4: RSS improves on
   standard TCP by ~40 % over a 25 s transfer (measured +51.75 %);
   standard stalls, RSS never does. *)
let test_claim_table1 () =
  match Core.Experiments.Table1.run ~durations:[ 25. ] () with
  | [ row ] ->
      Alcotest.(check bool)
        (Printf.sprintf "improvement %.2f%% >= 40%%"
           row.Core.Experiments.Table1.improvement_pct)
        true
        (row.Core.Experiments.Table1.improvement_pct >= 40.);
      Alcotest.(check bool) "standard stalls" true
        (row.Core.Experiments.Table1.standard_stalls >= 1);
      Alcotest.(check int) "RSS never stalls" 0
        row.Core.Experiments.Table1.restricted_stalls
  | _ -> Alcotest.fail "expected one row"

(* Figure 1's staircase: a disk-paced transfer under standard
   slow-start (idle restart off) accumulates send-stalls 0, 1, 2, 3, 4
   over 25 s, one per chunk burst and never decreasing; RSS stays at
   zero. *)
let test_claim_fig1_staircase () =
  let rows = Core.Experiments.Chunked_app.run () in
  let series label =
    match
      List.find_opt (fun r -> r.Core.Experiments.Chunked_app.label = label) rows
    with
    | Some r ->
        Array.to_list
          (Sim.Stats.Series.values r.Core.Experiments.Chunked_app.stalls_series)
    | None -> Alcotest.failf "no %s row" label
  in
  let staircase = series "standard/restart-off" in
  Alcotest.(check bool) "never decreases" true
    (List.sort compare staircase = staircase);
  Alcotest.(check (list (float 0.))) "climbs 0 -> 4"
    [ 0.; 1.; 2.; 3.; 4. ]
    (List.sort_uniq compare staircase);
  Alcotest.(check bool) "restricted stays at 0" true
    (List.for_all (fun v -> v = 0.) (series "restricted/restart-on"))

(* --- allocation on the packet path -------------------------------------- *)

(* Minor words of one 2 s run of the paper path: one bulk flow, no
   series. The spec is built before the measured region and a warm-up
   run goes first. Exact for a given build: the values were read on
   OCaml 5.1.1 with the dev profile, which compiles with -opaque; other
   profiles read other numbers (tcp.cwnd-table's cubic pin already
   differs under --profile release). *)
let paper_path_2s slow_start =
  {
    Core.Spec.default with
    Core.Spec.duration = Sim.Time.sec 2;
    record_series = false;
    flows = [ { Core.Spec.default_flow with Core.Spec.slow_start } ];
  }

let packet_path_words slow_start =
  let spec = paper_path_2s slow_start in
  ignore (Core.Spec.run spec);
  let before = Gc.minor_words () in
  ignore (Core.Spec.run spec);
  int_of_float (Gc.minor_words () -. before)

let test_packet_path_words () =
  List.iter
    (fun (slow_start, words) ->
      Alcotest.(check int)
        (slow_start ^ ": minor words over 2 s")
        words
        (packet_path_words slow_start))
    [ ("standard", 831_631); ("restricted", 1_688_098) ]

(* Scheduler dispatches of the 2 s standard run, counted by a trace ring
   that accepts only sched.dispatch records (refbench's
   sim.scheduler.events counts the same way). How the packet path
   keeps its pending events may change; the events it dispatches, and
   so this count, may not. *)
let test_packet_path_dispatches () =
  let spec = paper_path_2s "standard" in
  let built = Core.Spec.build { spec with Core.Spec.record_trace = true } in
  let tr = Option.get (Core.Spec.trace built) in
  Trace.set_mask tr Trace.Code.cat_sched;
  ignore (Core.Spec.execute built);
  Alcotest.(check int) "dispatches over 2 s" 16_166 (Trace.total tr)

let suite =
  [
    Alcotest.test_case "run bulk standard" `Quick test_run_bulk_standard;
    Alcotest.test_case "run: RSS beats standard" `Quick
      test_run_bulk_restricted_beats_standard;
    Alcotest.test_case "run completion" `Quick test_run_completion;
    Alcotest.test_case "run determinism" `Quick test_run_determinism;
    Alcotest.test_case "bogus policy rejected" `Quick
      test_run_rejects_bogus_policy;
    Alcotest.test_case "fig1 (short)" `Quick test_fig1_short;
    Alcotest.test_case "table1 (short)" `Quick test_table1_short;
    Alcotest.test_case "variants (short)" `Quick test_variants_short;
    Alcotest.test_case "ifq sweep (short)" `Quick test_ifq_sweep_short;
    Alcotest.test_case "fairness (short)" `Slow test_fairness_short;
    Alcotest.test_case "latency experiment (short)" `Quick
      test_latency_experiment_short;
    Alcotest.test_case "calibration plant responds" `Slow
      test_calibrate_plant_responds;
    Alcotest.test_case "tuned config" `Quick test_tuned_config;
    Alcotest.test_case "paper claim: T1 +40% at 25 s" `Slow test_claim_table1;
    Alcotest.test_case "paper claim: F1 stall staircase" `Slow
      test_claim_fig1_staircase;
    Alcotest.test_case "packet path minor words (2 s)" `Quick
      test_packet_path_words;
    Alcotest.test_case "packet path dispatches (2 s)" `Quick
      test_packet_path_dispatches;
  ]
