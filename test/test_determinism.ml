(* Experiment goldens: every driver of the Experiments catalog at a 2 s
   horizon, rendered by its CSV renderer (each file under a "# <file>"
   line) and compared byte-for-byte with the files committed under
   test/golden_experiments/. The goldens were generated on the
   sequential path; the check replays the drivers on a 4-domain pool,
   so one comparison pins both the reproduced numbers and their
   independence from the worker count. On a mismatch the fresh
   rendering is written to the temp directory (named in the failure) —
   copy it over the golden only for a deliberate model change. *)

let duration = Sim.Time.sec 2

let with_parallel f = Engine.Pool.with_pool ~jobs:4 (fun pool -> f (Some pool))

module E = Core.Experiments

let render id pool =
  String.concat ""
    (List.map
       (fun (file, contents) -> "# " ^ file ^ "\n" ^ contents)
       (E.to_csv ~id (E.run ?pool ~duration id)))

let golden_dir = "golden_experiments"

let test_experiment_golden id () =
  let file = id ^ ".txt" in
  let golden =
    In_channel.with_open_bin (Filename.concat golden_dir file)
      In_channel.input_all
  in
  let actual = with_parallel (render id) in
  if actual <> golden then begin
    let fresh = Filename.concat (Filename.get_temp_dir_name ()) file in
    Out_channel.with_open_bin fresh (fun oc -> output_string oc actual);
    Alcotest.failf "%s differs from the committed golden (fresh rendering: %s)"
      file fresh
  end

(* No experiment ships without a golden, and no golden outlives its
   experiment. *)
let test_catalog_has_goldens () =
  let goldens =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".txt" then
          Some (Filename.chop_suffix f ".txt")
        else None)
      (Array.to_list (Sys.readdir golden_dir))
  in
  Alcotest.(check (list string)) "catalog ids = golden files"
    (List.sort compare goldens)
    (List.sort compare (List.map (fun { E.id; _ } -> id) E.catalog))

(* The policy-matrix golden: the first seven named bundles on the paper
   path and the chaos profile at a fixed seed, rendered through
   Arena.to_csv's round-trip float format. small-rtt became a bundle
   after the golden was recorded, hence the explicit list. The file is
   committed (test/golden_policy_matrix.csv); regenerate with
     rss_sim compare --matrix --scenarios paper-path,chaos-bursty \
       --policies standard,restricted,restricted-adaptive,hystart-cubic,ssthreshless,relentless,fast \
       --duration 2 --seed 1 --out <dir> *)
let matrix_policies =
  [
    "standard"; "restricted"; "restricted-adaptive"; "hystart-cubic";
    "ssthreshless"; "relentless"; "fast";
  ]

let matrix_csv pool =
  match
    Core.Arena.run_collect ?pool ~policies:matrix_policies
      ~scenarios:[ "paper-path"; "chaos-bursty" ]
      ~duration ~seed:1 ()
  with
  | table, [] -> Core.Arena.to_csv table
  | _, f :: _ -> Alcotest.failf "poisoned cell %s" f.Engine.Pool.flabel

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
   writes for three pinned flow-level specs — 2,000 persistent flows deep
   in congestion avoidance on the RED duplex, a budgeted population
   sharded over four dumbbell segments, and 300 persistent flows with
   Pareto arrivals on a RED duplex whose base RTT is about three wheel
   ticks (so arrival timers share wheel slots with round timers). A
   speed-only change to the engine must leave them byte-identical;
   regenerate (only for a deliberate model change) with
     rss_sim run --spec test/golden_many_flows/mf_wide.json \
       --out test/golden_many_flows
   and likewise for mf_sharded.json and mf_pareto.json (a model change
   also retires mf_pareto_at_0.7s.snap, which pins resuming an older
   image). *)
let mf_golden_dir = "golden_many_flows"

let load_spec_file path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Result.bind (Report.Json.of_string text) Core.Spec.of_json with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" path e

let load_golden_spec file = load_spec_file (Filename.concat mf_golden_dir file)

let mf_tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rss_mf_golden_%d_%s" (Unix.getpid ()) name)

(* Each spec writes into its own directory, removed even when a
   comparison fails, so one failing golden cannot break the next. *)
let check_against_goldens (spec : Core.Spec.t) outcome =
  let dir = mf_tmp spec.Core.Spec.name in
  let written = Serve.Artifacts.write_outcome ~dir spec outcome in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove written;
      Unix.rmdir dir)
    (fun () ->
      List.iter
        (fun path ->
          let name = Filename.basename path in
          Alcotest.(check string)
            (name ^ " matches the committed golden")
            (read (Filename.concat mf_golden_dir name))
            (read path))
        written)

let test_many_flows_golden file () =
  let spec = load_golden_spec file in
  check_against_goldens spec (Core.Spec.run spec)

(* The same golden reached through a snapshot: drain at the first
   0.7 s checkpoint, resume from the image, and the artifacts must still
   match byte for byte. *)
let test_many_flows_golden_resumed file () =
  let spec = load_golden_spec file in
  let path = mf_tmp "resume.snap" in
  let checkpoint =
    {
      Core.Spec.snapshot_path = path;
      interval = Sim.Time.ms 700;
      should_stop = (fun () -> true);
    }
  in
  let snapshot =
    match Core.Spec.run ~checkpoint spec with
    | _ -> Alcotest.fail "expected a drain at the first checkpoint"
    | exception Core.Spec.Drained { at; snapshot } ->
        Alcotest.(check int) "drained mid-run" 700_000_000
          (Sim.Time.to_ns_int at);
        snapshot
  in
  check_against_goldens spec (Core.Spec.run ~resume_from:snapshot spec);
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ path; path ^ ".prev" ]

(* An image of the Pareto spec at its first 0.7 s checkpoint, written
   by the engine before round timers were grouped into cohorts: one
   wheel timer per row, whose handle the Flow_table [timer] column held.
   It must still resume to the golden artifacts. *)
let test_many_flows_golden_from_image file image () =
  let spec = load_golden_spec file in
  check_against_goldens spec
    (Core.Spec.run ~resume_from:(Filename.concat mf_golden_dir image) spec)

(* The trace golden: what `rss_sim trace --spec examples/dumbbell_mixed.json`
   writes through Serve.Artifacts.write_trace, the one writer the CLI
   and this test share — three TCP flows, two with delayed starts,
   under burst loss, with the event ring and the metrics registry
   attached. The metrics CSV is committed whole under
   test/golden_trace/; the event CSV and the Chrome JSON (2 MB and
   7 MB) as MD5 digests, in md5sum's format, in dumbbell-mixed.md5.
   The registry columns pin every sender's counters and gauges at each
   sample tick. Regenerate (only for a deliberate model change) with
     rss_sim trace --spec examples/dumbbell_mixed.json --out test/golden_trace
   then write the md5sum of the two large files to dumbbell-mixed.md5
   and delete them. *)
let trace_golden_dir = "golden_trace"

let test_trace_golden () =
  let spec =
    { (load_spec_file "../examples/dumbbell_mixed.json") with
      Core.Spec.record_trace = true }
  in
  let dir = mf_tmp "trace" in
  let paths = Serve.Artifacts.write_trace ~dir spec (Core.Spec.run spec) in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let contents =
    List.map (fun path -> (Filename.basename path, read path)) paths
  in
  List.iter Sys.remove paths;
  Unix.rmdir dir;
  let base = Serve.Artifacts.sanitize spec.Core.Spec.name in
  let written name = List.assoc (base ^ name) contents in
  Alcotest.(check string) "metrics CSV matches the committed golden"
    (read (Filename.concat trace_golden_dir (base ^ "_metrics.csv")))
    (written "_metrics.csv");
  let md5sum name =
    Printf.sprintf "%s  %s%s\n" (Digest.to_hex (Digest.string (written name)))
      base name
  in
  Alcotest.(check string) "event CSV and Chrome JSON digests"
    (read (Filename.concat trace_golden_dir (base ^ ".md5")))
    (md5sum "_events.csv" ^ md5sum "_trace.json")

let suite =
  List.map
    (fun { E.id; _ } ->
      Alcotest.test_case (id ^ " golden replay") `Quick
        (test_experiment_golden id))
    E.catalog
  @ [
      Alcotest.test_case "experiment catalog = golden files" `Quick
        test_catalog_has_goldens;
      Alcotest.test_case "policy matrix golden (jobs 1 vs 4)" `Quick
        test_policy_matrix_golden;
      Alcotest.test_case "many-flows golden: wide windows" `Quick
        (test_many_flows_golden "mf_wide.json");
      Alcotest.test_case "many-flows golden: budgeted, sharded" `Quick
        (test_many_flows_golden "mf_sharded.json");
      Alcotest.test_case "many-flows golden: Pareto arrivals, short RTT"
        `Quick
        (test_many_flows_golden "mf_pareto.json");
      Alcotest.test_case "many-flows golden: Pareto arrivals, resumed" `Quick
        (test_many_flows_golden_resumed "mf_pareto.json");
      Alcotest.test_case
        "many-flows golden: Pareto arrivals, resumed from a per-row image"
        `Quick
        (test_many_flows_golden_from_image "mf_pareto.json"
           "mf_pareto_at_0.7s.snap");
      Alcotest.test_case "trace golden: dumbbell_mixed" `Quick
        test_trace_golden;
    ]
