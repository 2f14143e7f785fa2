(* Golden replay: fig1 and e2 run once sequentially and once on a
   4-domain pool must emit identical CSV rows — the guard on the
   paper-reproduction numbers in EXPERIMENTS.md. Short horizons keep
   the suite fast; the full horizons run in bench/ and in CI's
   parallel-determinism job. *)

let duration = Sim.Time.sec 2

let series_csv s =
  let path = Filename.temp_file "rss_determinism" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Report.Csv.write_series ~path ~name:"v" s;
      In_channel.with_open_text path In_channel.input_all)

let with_parallel f = Engine.Pool.with_pool ~jobs:4 (fun pool -> f (Some pool))

let fig1_artifacts pool =
  let r = Core.Experiments.Fig1.run ?pool ~duration () in
  let std = r.Core.Experiments.Fig1.standard in
  let rss = r.Core.Experiments.Fig1.restricted in
  List.map series_csv
    [
      std.Core.Run.stalls_series;
      std.Core.Run.cwnd_series;
      rss.Core.Run.stalls_series;
      rss.Core.Run.cwnd_series;
    ]

let test_fig1_replay () =
  Alcotest.(check (list string))
    "fig1 CSVs byte-identical, sequential vs 4 domains"
    (fig1_artifacts None)
    (with_parallel fig1_artifacts)

let e2_rows pool =
  let rows = Core.Experiments.Variants.run ?pool ~duration () in
  List.map
    (fun (r : Core.Run.result) ->
      Printf.sprintf "%s,%.9f,%d,%d,%d,%d,%.9f" r.Core.Run.label
        r.Core.Run.goodput_mbps r.Core.Run.send_stalls
        r.Core.Run.congestion_signals r.Core.Run.retransmits
        r.Core.Run.timeouts r.Core.Run.final_cwnd_segments)
    rows

let test_e2_replay () =
  Alcotest.(check (list string))
    "e2 rows identical, sequential vs 4 domains" (e2_rows None)
    (with_parallel e2_rows)

(* The policy-matrix golden: the full zoo on the paper path and the
   chaos profile at a fixed seed, rendered through Arena.to_csv's
   round-trip float format. The file is committed
   (test/golden_policy_matrix.csv); regenerate with
     rss_sim compare --matrix --scenarios paper-path,chaos-bursty \
       --duration 2 --seed 1 --out <dir>
   The explicit policy list keeps the golden stable even when other
   suites extend the registry. *)
let matrix_policies =
  [
    "standard"; "restricted"; "restricted-adaptive"; "hystart-cubic";
    "ssthreshless"; "relentless"; "fast";
  ]

let matrix_csv pool =
  Core.Arena.to_csv
    (Core.Arena.run ?pool ~policies:matrix_policies
       ~scenarios:[ "paper-path"; "chaos-bursty" ]
       ~duration ~seed:1 ())

let test_policy_matrix_golden () =
  let golden =
    In_channel.with_open_text "golden_policy_matrix.csv" In_channel.input_all
  in
  let sequential = matrix_csv None in
  Alcotest.(check string) "matrix matches the committed golden" golden
    sequential;
  Alcotest.(check string) "matrix identical on a 4-domain pool" sequential
    (with_parallel matrix_csv)

(* The many-flows goldens: every artifact `rss_sim run --spec --out`
   writes for two pinned flow-level specs — 2,000 persistent flows deep
   in congestion avoidance on the RED duplex, and a budgeted population
   sharded over four dumbbell segments. A speed-only change to the
   engine must leave them byte-identical; regenerate (only for a
   deliberate model change) with
     rss_sim run --spec test/golden_many_flows/mf_wide.json \
       --out test/golden_many_flows
   and likewise for mf_sharded.json. *)
let mf_golden_dir = "golden_many_flows"

let test_many_flows_golden file () =
  let spec =
    match
      Report.Json.of_string
        (In_channel.with_open_text
           (Filename.concat mf_golden_dir file)
           In_channel.input_all)
    with
    | Error e -> Alcotest.failf "%s: %s" file e
    | Ok j -> (
        match Core.Spec.of_json j with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" file e)
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rss_mf_golden_%d" (Unix.getpid ()))
  in
  let written = Serve.Artifacts.write_outcome ~dir spec (Core.Spec.run spec) in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun path ->
      let name = Filename.basename path in
      Alcotest.(check string)
        (name ^ " matches the committed golden")
        (read (Filename.concat mf_golden_dir name))
        (read path);
      Sys.remove path)
    written;
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "fig1 golden replay" `Quick test_fig1_replay;
    Alcotest.test_case "e2 golden replay" `Quick test_e2_replay;
    Alcotest.test_case "policy matrix golden (jobs 1 vs 4)" `Quick
      test_policy_matrix_golden;
    Alcotest.test_case "many-flows golden: wide windows" `Quick
      (test_many_flows_golden "mf_wide.json");
    Alcotest.test_case "many-flows golden: budgeted, sharded" `Quick
      (test_many_flows_golden "mf_sharded.json");
  ]
