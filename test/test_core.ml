(* Spec runs of the paper path, experiment drivers (short horizons to
   stay fast — the full horizons run in `rss_sim experiments`) and the
   paper's headline claims at full horizon. *)

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
    (Array.length (Sim.Stats.Series.times r.Core.Spec.cwnd_series) > 20)

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

module E = Core.Experiments

(* Column [name] of an experiment's table [table] (default: the main
   one), one cell per row. *)
let column ?(table = "") (t : E.t) name =
  let tb = List.find (fun tb -> tb.E.name = table) t.E.tables in
  let rec index i = function
    | [] -> Alcotest.failf "no column %s" name
    | c :: _ when c = name -> i
    | _ :: cs -> index (i + 1) cs
  in
  let i = index 0 tb.E.columns in
  List.map (fun row -> List.nth row i) tb.E.rows

let floats t name =
  List.map
    (function
      | E.Float x -> x | _ -> Alcotest.failf "column %s is not float" name)
    (column t name)

let ints t name =
  List.map
    (function E.Int i -> i | _ -> Alcotest.failf "column %s is not int" name)
    (column t name)

let texts t name =
  List.map
    (function E.Text s -> s | _ -> Alcotest.failf "column %s is not text" name)
    (column t name)

(* The values of the series [name] of the run labelled [label]. *)
let series (t : E.t) label name =
  match
    List.find_opt
      (fun s ->
        s.E.label = label && Sim.Stats.Series.name s.E.data = name)
      t.E.series
  with
  | Some s -> Array.to_list (Sim.Stats.Series.values s.E.data)
  | None -> Alcotest.failf "no %s %s series" label name

let test_fig1_short () =
  let t = E.run ~duration:(Sim.Time.sec 3) "fig1" in
  let stalls label =
    List.assoc label (List.combine (texts t "label") (ints t "send_stalls"))
  in
  Alcotest.(check bool) "standard stalls" true (stalls "standard" >= 1);
  Alcotest.(check int) "RSS clean" 0 (stalls "restricted");
  (* The stalls series is a cumulative counter: non-decreasing. *)
  let v = Array.of_list (series t "standard" "send_stalls") in
  let monotone = ref true in
  Array.iteri (fun i x -> if i > 0 && x < v.(i - 1) then monotone := false) v;
  Alcotest.(check bool) "cumulative monotone" true !monotone

let test_table1_short () =
  let t = E.run ~duration:(Sim.Time.sec 3) "table1" in
  match floats t "improvement_pct" with
  | [ improvement ] ->
      Alcotest.(check bool) "improvement positive" true (improvement > 0.)
  | _ -> Alcotest.fail "expected one row"

let test_variants_short () =
  let t = E.run ~duration:(Sim.Time.sec 3) "e2" in
  Alcotest.(check (list string)) "order and labels"
    [ "standard"; "abc"; "limited"; "hystart"; "restricted" ]
    (texts t "label")

let test_ifq_sweep_short () =
  let t = E.run ~duration:(Sim.Time.sec 3) "e3" in
  let goodput ifq label =
    List.find_map
      (fun ((q, l), g) -> if q = ifq && l = label then Some g else None)
      (List.combine
         (List.combine (ints t "ifq_packets") (texts t "label"))
         (floats t "goodput_mbps"))
  in
  let rows =
    List.filter_map
      (fun ifq ->
        match (goodput ifq "standard", goodput ifq "restricted") with
        | Some std, Some rss -> Some (std, rss)
        | _ -> None)
      [ 50; 200 ]
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (std, rss) ->
      Alcotest.(check bool) "RSS >= std on paper path" true (rss >= 0.8 *. std))
    rows

let test_fairness_short () =
  let t = E.run ~duration:(Sim.Time.sec 5) "e8" in
  let one name = List.hd (floats t name) in
  Alcotest.(check bool) "Jain in (0,1]" true
    (one "jain_index" > 0. && one "jain_index" <= 1.);
  Alcotest.(check bool) "both flows progress" true
    (one "reno_mbps" > 0. && one "restricted_mbps" > 0.)

let test_latency_experiment_short () =
  let t = E.run ~duration:(Sim.Time.sec 5) "e14" in
  let rows = floats t "mean_delay_ms" in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  (match rows with
  | std :: rss09 :: _ ->
      (* RSS's standing queue must show up as added one-way delay. *)
      Alcotest.(check bool) "rss delay above standard" true
        (rss09 > std +. 5.);
      Alcotest.(check bool) "delays above propagation floor" true
        (std >= 30.)
  | _ -> Alcotest.fail "unexpected row shape");
  (* Lower set points give monotonically lower delay. *)
  let delays = List.tl rows in
  Alcotest.(check bool) "set point orders delay" true
    (List.sort (fun a b -> compare b a) delays = delays)

let test_calibrate_plant_responds () =
  let plant = Core.Calibrate.sim_plant () in
  (* Tiny window: IFQ stays empty. *)
  let y_small = plant ~dt:0.5 ~u:4. in
  Alcotest.(check (float 1.)) "empty at small window" 0. y_small;
  (* Large window: the queue must fill (BDP 500 + slack). *)
  let y = ref 0. in
  for _ = 1 to 6 do
    y := plant ~dt:0.5 ~u:700.
  done;
  Alcotest.(check bool) "queue builds at big window" true (!y > 50.)

(* The paper's headline claims at full horizon. §4: RSS improves on
   standard TCP by ~40 % over a 25 s transfer (measured +51.75 %);
   standard stalls, RSS never does. *)
let test_claim_table1 () =
  let t = E.run ~duration:(Sim.Time.sec 25) "table1" in
  match
    ( floats t "improvement_pct",
      ints t "standard_stalls",
      ints t "restricted_stalls" )
  with
  | [ improvement ], [ standard_stalls ], [ restricted_stalls ] ->
      Alcotest.(check bool)
        (Printf.sprintf "improvement %.2f%% >= 40%%" improvement)
        true (improvement >= 40.);
      Alcotest.(check bool) "standard stalls" true (standard_stalls >= 1);
      Alcotest.(check int) "RSS never stalls" 0 restricted_stalls
  | _ -> Alcotest.fail "expected one row"

(* Figure 1's staircase: a disk-paced transfer under standard
   slow-start (idle restart off) accumulates send-stalls 0, 1, 2, 3, 4
   over 25 s, one per chunk burst and never decreasing; RSS stays at
   zero. *)
let test_claim_fig1_staircase () =
  let t = E.run "e13" in
  let staircase = series t "standard/restart-off" "send_stalls" in
  Alcotest.(check bool) "never decreases" true
    (List.sort compare staircase = staircase);
  Alcotest.(check (list (float 0.))) "climbs 0 -> 4"
    [ 0.; 1.; 2.; 3.; 4. ]
    (List.sort_uniq compare staircase);
  Alcotest.(check bool) "restricted stays at 0" true
    (List.for_all (fun v -> v = 0.)
       (series t "restricted/restart-on" "send_stalls"))

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
    [ ("standard", 799_358); ("restricted", 1_623_269) ]

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
  Alcotest.(check int) "dispatches over 2 s" 16_158 (Trace.total tr)

(* The console renderer keeps the digits that decide a reading: the
   mean-field sweep's margin at N = 129 is 1.0027, which two decimals
   would show as 1.00, the stability boundary itself. Each float goes
   through [to_text] as a one-cell table. *)
let test_text_cell_digits () =
  let render cell =
    Report.Table.render ~aligns:[ Report.Table.Right ]
      ~headers:[ "gain_margin" ] ~rows:[ [ cell ] ] ()
  in
  List.iter
    (fun (x, cell) ->
      Alcotest.(check string) (Printf.sprintf "%.17g" x) (render cell)
        (E.to_text
           {
             E.tables =
               [ { E.name = ""; columns = [ "gain_margin" ]; rows = [ [ E.Float x ] ] } ];
             series = [];
             note = "";
           }))
    [
      (1.0026725026309338, "1.003");
      (0.42050762722424179, "0.4205");
      (9.9994, "9.999");
      (44.93910945131892, "44.94");
    ]

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
    Alcotest.test_case "packet path dispatches (2 s)" `Quick
      test_packet_path_dispatches;
    Alcotest.test_case "paper claim: T1 +40% at 25 s" `Slow test_claim_table1;
    Alcotest.test_case "paper claim: F1 stall staircase" `Slow
      test_claim_fig1_staircase;
    Alcotest.test_case "packet path minor words (2 s)" `Quick
      test_packet_path_words;
    Alcotest.test_case "console floats keep four digits" `Quick
      test_text_cell_digits;
  ]
