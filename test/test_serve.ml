(* The job service: journal WAL semantics (torn tails included), crash
   recovery that never re-runs a finished job, retry with backoff for
   transient failures, immediate quarantine for deterministic poison,
   and drain/resume outcomes byte-identical to unbroken runs at any
   worker count. *)

module J = Serve.Journal
module Sup = Serve.Supervisor

let tmp_counter = ref 0

let tmp_dir name =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rss_serve_test_%d_%d_%s" (Unix.getpid ()) !tmp_counter
         name)
  in
  Serve.Artifacts.ensure_dir dir;
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let mf_spec ?(name = "serve-mf") ?(seed = 31) ?(duration = 3.) () =
  {
    Core.Spec.default with
    name;
    seed;
    duration = Sim.Time.of_sec duration;
    sample_period = Sim.Time.ms 250;
    topology =
      Core.Spec.Duplex
        {
          Core.Spec.default_duplex with
          rate = Sim.Units.mbps 50.;
          one_way_delay = Sim.Time.ms 20;
          ifq_capacity = 120;
        };
    flows =
      [
        {
          Core.Spec.default_flow with
          label = Some "crowd";
          workload =
            Core.Spec.Many_flows
              {
                flows = 300;
                arrival_rate = Some 250.;
                arrival_pareto_shape = None;
                mean_size = Some 120_000;
                size_pareto_shape = 1.3;
              };
        };
      ];
  }

let base_config ~state_dir ~spool =
  {
    Sup.default_config with
    Sup.spool;
    state_dir;
    once = true;
    backoff_base = 0.001;
    backoff_max = 0.01;
    poll_interval = 0.01;
    checkpoint_every = Sim.Time.of_sec 1.;
  }

(* --- journal ----------------------------------------------------------- *)

let sample_events =
  [
    J.Submitted
      { job = "a"; spec = Report.Json.Obj [ ("name", Report.Json.String "a") ] };
    J.Started { job = "a"; attempt = 1 };
    J.Checkpointed { job = "a"; snapshot = "/x/a.snap"; at_ns = 1_000_000_000 };
    J.Failed
      { job = "a"; attempt = 1; error = "Failure(\"boom\")"; retry_in_s = 0.05 };
    J.Finished { job = "a"; outcome = "/x/a.json" };
    J.Quarantined { job = "b"; artifact = "/x/b.json"; error = "invalid" };
  ]

let test_journal_round_trip () =
  let dir = tmp_dir "journal" in
  let path = Filename.concat dir "j.jsonl" in
  let j = J.open_append ~path in
  List.iter (J.append j) sample_events;
  J.close j;
  Alcotest.(check int) "replayed all records"
    (List.length sample_events)
    (List.length (J.replay ~path));
  List.iter2
    (fun a b ->
      Alcotest.(check string) "event round-trips"
        (Report.Json.to_string_compact (J.event_to_json a))
        (Report.Json.to_string_compact (J.event_to_json b)))
    sample_events (J.replay ~path)

let test_journal_torn_tail () =
  let dir = tmp_dir "torn" in
  let path = Filename.concat dir "j.jsonl" in
  let j = J.open_append ~path in
  List.iter (J.append j) sample_events;
  J.close j;
  (* simulate a crash mid-append: a half-written record, no newline *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"ev\":\"finis";
  close_out oc;
  Alcotest.(check int) "torn tail dropped, prefix intact"
    (List.length sample_events)
    (List.length (J.replay ~path));
  (* appends after the torn bytes are ignored by every later replay —
     the damaged line swallows them deterministically *)
  let j = J.open_append ~path in
  J.append j (J.Started { job = "c"; attempt = 1 });
  J.close j;
  Alcotest.(check int) "replay is stable after the tear"
    (List.length sample_events)
    (List.length (J.replay ~path))

let test_journal_missing_file () =
  Alcotest.(check int) "missing journal is empty" 0
    (List.length (J.replay ~path:"/nonexistent/journal.jsonl"))

(* --- supervisor -------------------------------------------------------- *)

let test_completes_and_writes_artifacts () =
  let state_dir = tmp_dir "complete_state" in
  let spool = tmp_dir "complete_spool" in
  let spec = mf_spec () in
  let stats = Sup.run ~specs:[ spec ] (base_config ~state_dir ~spool) in
  Alcotest.(check int) "one job completed" 1 stats.Sup.completed;
  Alcotest.(check int) "nothing quarantined" 0 stats.Sup.quarantined;
  let outcome_path =
    Filename.concat (Filename.concat state_dir "outcomes")
      "serve-mf_outcome.json"
  in
  Alcotest.(check bool) "outcome artifact exists" true
    (Sys.file_exists outcome_path);
  Alcotest.(check string) "artifact matches a by-hand run, byte for byte"
    (Report.Json.to_string (Core.Spec.outcome_to_json (Core.Spec.run spec)))
    (read_file outcome_path)

let test_transient_failure_retried () =
  let state_dir = tmp_dir "retry_state" in
  let spool = tmp_dir "retry_spool" in
  let attempts = Atomic.make 0 in
  let runner ~job_id:_ ~checkpoint ~resume_from spec =
    if Atomic.fetch_and_add attempts 1 = 0 then
      failwith "transient: simulated infra flake"
    else Core.Spec.run ?checkpoint ?resume_from spec
  in
  let stats =
    Sup.run ~runner ~specs:[ mf_spec () ] (base_config ~state_dir ~spool)
  in
  Alcotest.(check int) "completed after retry" 1 stats.Sup.completed;
  Alcotest.(check int) "one retry recorded" 1 stats.Sup.retries;
  Alcotest.(check int) "not quarantined" 0 stats.Sup.quarantined;
  let events = J.replay ~path:(Filename.concat state_dir "journal.jsonl") in
  Alcotest.(check bool) "journal has the Failed record with backoff" true
    (List.exists
       (function
         | J.Failed { attempt = 1; retry_in_s; _ } -> retry_in_s > 0.
         | _ -> false)
       events)

let test_deterministic_failure_quarantined () =
  let state_dir = tmp_dir "poison_state" in
  let spool = tmp_dir "poison_spool" in
  let runner ~job_id ~checkpoint ~resume_from spec =
    if job_id = "poisoned" then failwith "deterministic bug"
    else Core.Spec.run ?checkpoint ?resume_from spec
  in
  let config =
    { (base_config ~state_dir ~spool) with Sup.max_attempts = 2 }
  in
  let stats =
    Sup.run ~runner
      ~specs:[ mf_spec ~name:"poisoned" (); mf_spec ~name:"healthy" () ]
      config
  in
  (* the poisoned job must not abort the queue *)
  Alcotest.(check int) "healthy job still completed" 1 stats.Sup.completed;
  Alcotest.(check int) "poisoned job quarantined" 1 stats.Sup.quarantined;
  Alcotest.(check int) "exhausted max_attempts - 1 retries" 1
    stats.Sup.retries;
  let artifact =
    Filename.concat (Filename.concat state_dir "quarantine") "poisoned.json"
  in
  Alcotest.(check bool) "replayable artifact written" true
    (Sys.file_exists artifact);
  match Sup.quarantine_spec ~path:artifact with
  | Error e -> Alcotest.failf "artifact does not re-parse: %s" e
  | Ok spec ->
      Alcotest.(check string) "artifact embeds the original spec"
        "poisoned" spec.Core.Spec.name

let test_invalid_spec_quarantined_immediately () =
  let state_dir = tmp_dir "invalid_state" in
  let spool = tmp_dir "invalid_spool" in
  let bad =
    {
      (mf_spec ~name:"bad" ()) with
      Core.Spec.flows =
        [ { Core.Spec.default_flow with Core.Spec.slow_start = "bogus" } ];
    }
  in
  let stats =
    Sup.run
      ~specs:[ bad; mf_spec ~name:"healthy" () ]
      (base_config ~state_dir ~spool)
  in
  Alcotest.(check int) "healthy job completed" 1 stats.Sup.completed;
  Alcotest.(check int) "invalid spec quarantined" 1 stats.Sup.quarantined;
  Alcotest.(check int) "no retries for deterministic poison" 0
    stats.Sup.retries

(* A daemon setting is the caller's error, not a job's: a zero
   checkpoint interval is refused before the journal opens, so no job
   is quarantined for it. *)
let test_zero_checkpoint_interval_refused () =
  let state_dir = tmp_dir "ckpt0_state" in
  let spool = tmp_dir "ckpt0_spool" in
  Alcotest.check_raises "refused"
    (Invalid_argument "Supervisor.run: checkpoint_every must be > 0")
    (fun () ->
      ignore
        (Sup.run
           {
             (base_config ~state_dir ~spool) with
             Sup.checkpoint_every = Sim.Time.zero;
           }));
  Alcotest.(check bool) "no journal written" false
    (Sys.file_exists (Filename.concat state_dir "journal.jsonl"))

let test_watchdog_drain_resume_byte_identical () =
  let spec = mf_spec ~name:"drainy" ~seed:32 () in
  let reference =
    Report.Json.to_string (Core.Spec.outcome_to_json (Core.Spec.run spec))
  in
  let run_with_jobs jobs =
    let state_dir = tmp_dir (Printf.sprintf "drain_state_j%d" jobs) in
    let spool = tmp_dir (Printf.sprintf "drain_spool_j%d" jobs) in
    let config =
      {
        (base_config ~state_dir ~spool) with
        Sup.jobs;
        deadline = Some 0.;  (* drain at every checkpoint *)
      }
    in
    let stats = Sup.run ~specs:[ spec ] config in
    Alcotest.(check int) "completed" 1 stats.Sup.completed;
    Alcotest.(check bool) "was drained at least once" true
      (stats.Sup.drains >= 1);
    Alcotest.(check int) "completion counted as resumed" 1 stats.Sup.resumed;
    read_file
      (Filename.concat
         (Filename.concat state_dir "outcomes")
         "drainy_outcome.json")
  in
  Alcotest.(check string) "jobs=1 drained outcome == unbroken" reference
    (run_with_jobs 1);
  Alcotest.(check string) "jobs=4 drained outcome == unbroken" reference
    (run_with_jobs 4)

let test_crash_recovery_resumes_from_snapshot () =
  (* Reconstruct a SIGKILLed daemon's state directory by hand: journal
     says submitted+started (no finish), and a checkpoint image sits in
     snapshots/ — exactly what a kill -9 mid-run leaves behind. *)
  let state_dir = tmp_dir "crash_state" in
  let spool = tmp_dir "crash_spool" in
  let spec = mf_spec ~name:"victim" ~seed:33 () in
  let snap = Sup.snapshot_path state_dir "victim" in
  Serve.Artifacts.ensure_dir (Filename.dirname snap);
  (match
     Core.Spec.run
       ~checkpoint:
         {
           Core.Spec.snapshot_path = snap;
           interval = Sim.Time.of_sec 1.;
           should_stop = (fun () -> true);
         }
       spec
   with
  | _ -> Alcotest.fail "expected Drained"
  | exception Core.Spec.Drained _ -> ());
  let j = J.open_append ~path:(Filename.concat state_dir "journal.jsonl") in
  J.append j (J.Submitted { job = "victim"; spec = Core.Spec.to_json spec });
  J.append j (J.Started { job = "victim"; attempt = 1 });
  J.close j;
  let stats = Sup.run (base_config ~state_dir ~spool) in
  Alcotest.(check int) "recovered job completed" 1 stats.Sup.completed;
  Alcotest.(check int) "completed from the snapshot" 1 stats.Sup.resumed;
  Alcotest.(check string) "recovered outcome == unbroken run"
    (Report.Json.to_string (Core.Spec.outcome_to_json (Core.Spec.run spec)))
    (read_file
       (Filename.concat
          (Filename.concat state_dir "outcomes")
          "victim_outcome.json"))

(* The same recovery from a digest-valid image whose wheel holds a
   timer of a kind the engine does not have, for a row far past its
   table: the resume fails as [Corrupt], so the daemon drops the image
   and runs the job from scratch instead of firing the timer. *)
let test_bad_wheel_kind_restarts_clean () =
  let state_dir = tmp_dir "badkind_state" in
  let spool = tmp_dir "badkind_spool" in
  let spec = mf_spec ~name:"badkind" ~seed:34 () in
  let snap = Sup.snapshot_path state_dir "badkind" in
  Serve.Artifacts.ensure_dir (Filename.dirname snap);
  (match
     Core.Spec.run
       ~checkpoint:
         {
           Core.Spec.snapshot_path = snap;
           interval = Sim.Time.of_sec 1.;
           should_stop = (fun () -> true);
         }
       spec
   with
  | _ -> Alcotest.fail "expected Drained"
  | exception Core.Spec.Drained _ -> ());
  let image = read_file snap in
  let saved = Sim.Snapshot.get_int_array (Sim.Snapshot.of_string image) in
  let w = Sim.Snapshot.writer () in
  Sim.Snapshot.put_int_array w "mf.wheel_kind"
    (Array.mapi (fun i k -> if i = 0 then 2 else k) (saved "mf.wheel_kind"));
  Sim.Snapshot.put_int_array w "mf.wheel_flow"
    (Array.mapi
       (fun i row -> if i = 0 then 1_000_000_000 else row)
       (saved "mf.wheel_flow"));
  let oc = open_out_bin snap in
  output_string oc (Test_resume.override image w);
  close_out oc;
  let j = J.open_append ~path:(Filename.concat state_dir "journal.jsonl") in
  J.append j (J.Submitted { job = "badkind"; spec = Core.Spec.to_json spec });
  J.append j (J.Started { job = "badkind"; attempt = 1 });
  J.close j;
  let stats = Sup.run (base_config ~state_dir ~spool) in
  Alcotest.(check int) "job completed" 1 stats.Sup.completed;
  Alcotest.(check int) "not from the image" 0 stats.Sup.resumed;
  Alcotest.(check int) "nothing quarantined" 0 stats.Sup.quarantined;
  Alcotest.(check string) "outcome == unbroken run"
    (Report.Json.to_string (Core.Spec.outcome_to_json (Core.Spec.run spec)))
    (read_file
       (Filename.concat
          (Filename.concat state_dir "outcomes")
          "badkind_outcome.json"))

let test_finished_jobs_never_rerun () =
  let state_dir = tmp_dir "norerun_state" in
  let spool = tmp_dir "norerun_spool" in
  let spec = mf_spec ~name:"done-once" () in
  (* the spool still offers the job file... *)
  let oc = open_out (Filename.concat spool "done-once.json") in
  output_string oc (Report.Json.to_string (Core.Spec.to_json spec));
  close_out oc;
  (* ...but the journal says it already finished *)
  let j = J.open_append ~path:(Filename.concat state_dir "journal.jsonl") in
  J.append j
    (J.Submitted { job = "done-once"; spec = Core.Spec.to_json spec });
  J.append j (J.Started { job = "done-once"; attempt = 1 });
  J.append j (J.Finished { job = "done-once"; outcome = "/old/outcome.json" });
  J.close j;
  let ran = Atomic.make 0 in
  let runner ~job_id:_ ~checkpoint ~resume_from spec =
    Atomic.incr ran;
    Core.Spec.run ?checkpoint ?resume_from spec
  in
  let stats = Sup.run ~runner (base_config ~state_dir ~spool) in
  Alcotest.(check int) "nothing ran" 0 (Atomic.get ran);
  Alcotest.(check int) "nothing completed" 0 stats.Sup.completed

let test_graceful_stop_drains_to_snapshot () =
  (* A pre-set stop flag: the job must stop at its FIRST checkpoint,
     journal the drain, and leave a resumable snapshot. *)
  let state_dir = tmp_dir "stop_state" in
  let spool = tmp_dir "stop_spool" in
  let stop = Atomic.make false in
  let runner ~job_id ~checkpoint ~resume_from spec =
    (* set stop while the job runs — deterministic: before it starts *)
    Atomic.set stop true;
    Sup.default_runner ~job_id ~checkpoint ~resume_from spec
  in
  let config = { (base_config ~state_dir ~spool) with Sup.once = false } in
  let stats = Sup.run ~stop ~runner ~specs:[ mf_spec ~name:"stoppy" () ] config in
  Alcotest.(check int) "drained, not completed" 0 stats.Sup.completed;
  Alcotest.(check int) "one drain" 1 stats.Sup.drains;
  Alcotest.(check bool) "snapshot left for the restart" true
    (Sys.file_exists (Sup.snapshot_path state_dir "stoppy"));
  (* restart without the stop flag: completes from the snapshot *)
  let stats2 = Sup.run (base_config ~state_dir ~spool) in
  Alcotest.(check int) "restart completed" 1 stats2.Sup.completed;
  Alcotest.(check int) "restart resumed from snapshot" 1 stats2.Sup.resumed

(* A spool entry that cannot be read is quarantined like an unparsable
   one instead of killing the daemon. *)
let test_unreadable_spool_entry_quarantined () =
  let state_dir = tmp_dir "unreadable_state" in
  let spool = tmp_dir "unreadable_spool" in
  Unix.mkdir (Filename.concat spool "bad.json") 0o755;
  let stats = Sup.run (base_config ~state_dir ~spool) in
  Alcotest.(check int) "quarantined" 1 stats.Sup.quarantined;
  Alcotest.(check int) "nothing completed" 0 stats.Sup.completed

let test_quarantine_spec_names_unreadable_path () =
  let dir = tmp_dir "replay_dir" in
  match Sup.quarantine_spec ~path:dir with
  | Ok _ -> Alcotest.fail "read a spec from a directory"
  | Error e ->
      Alcotest.(check bool) (Printf.sprintf "%S names the path" e) true
        (String.starts_with ~prefix:(dir ^ ": ") e)

(* A traced job leaves the outcome JSON and the three trace files, the
   same bytes the writer gives a by-hand run. *)
let test_traced_job_writes_trace_artifacts () =
  let state_dir = tmp_dir "traced_state" in
  let spool = tmp_dir "traced_spool" in
  let spec =
    {
      Core.Spec.default with
      name = "traced";
      duration = Sim.Time.ms 500;
      record_series = false;
      record_trace = true;
    }
  in
  let stats = Sup.run ~specs:[ spec ] (base_config ~state_dir ~spool) in
  Alcotest.(check int) "completed" 1 stats.Sup.completed;
  let served = Filename.concat state_dir "outcomes" in
  let by_hand =
    Serve.Artifacts.write_outcome ~dir:(tmp_dir "traced_by_hand") spec
      (Core.Spec.run spec)
  in
  Alcotest.(check (list string)) "files"
    [
      "traced_outcome.json"; "traced_events.csv"; "traced_trace.json";
      "traced_metrics.csv";
    ]
    (List.map Filename.basename by_hand);
  List.iter
    (fun path ->
      let name = Filename.basename path in
      Alcotest.(check string) name (read_file path)
        (read_file (Filename.concat served name)))
    by_hand

let suite =
  [
    Alcotest.test_case "journal round trip" `Quick test_journal_round_trip;
    Alcotest.test_case "journal tolerates a torn tail" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "missing journal is empty" `Quick
      test_journal_missing_file;
    Alcotest.test_case "job completes; artifacts match a by-hand run"
      `Quick test_completes_and_writes_artifacts;
    Alcotest.test_case "transient failure retried with backoff" `Quick
      test_transient_failure_retried;
    Alcotest.test_case "deterministic failure quarantined, queue survives"
      `Quick test_deterministic_failure_quarantined;
    Alcotest.test_case "invalid spec quarantined immediately" `Quick
      test_invalid_spec_quarantined_immediately;
    Alcotest.test_case "zero checkpoint interval refused" `Quick
      test_zero_checkpoint_interval_refused;
    Alcotest.test_case "watchdog drain+resume byte-identical (jobs 1, 4)"
      `Quick test_watchdog_drain_resume_byte_identical;
    Alcotest.test_case "crash recovery resumes from snapshot" `Quick
      test_crash_recovery_resumes_from_snapshot;
    Alcotest.test_case "finished jobs never re-run" `Quick
      test_finished_jobs_never_rerun;
    Alcotest.test_case "graceful stop drains to a snapshot" `Quick
      test_graceful_stop_drains_to_snapshot;
    Alcotest.test_case "a bad wheel kind in the image restarts clean" `Quick
      test_bad_wheel_kind_restarts_clean;
    Alcotest.test_case "an unreadable spool entry is quarantined" `Quick
      test_unreadable_spool_entry_quarantined;
    Alcotest.test_case "quarantine_spec names an unreadable path" `Quick
      test_quarantine_spec_names_unreadable_path;
    Alcotest.test_case "a traced job writes the trace artifacts" `Quick
      test_traced_job_writes_trace_artifacts;
  ]
