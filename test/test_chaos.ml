(* Chaos harness: fixed-seed invariant suites for both slow-start
   variants, JSON round-trip, failure artifacts with byte-identical
   replay, and sweep determinism under the domain pool. *)

let mss = 1460

let ge_burst_profile =
  {
    Netsim.Fault_model.passthrough with
    Netsim.Fault_model.ge =
      Some
        {
          Netsim.Fault_model.p_gb = 0.01;
          p_bg = 0.3;
          loss_good = 0.0005;
          loss_bad = 0.15;
        };
  }

(* An outage lasting 2 × max_rto, opening mid slow-start: the sender
   must ride through at least two consecutive backed-off timeouts and
   still finish. *)
let two_rto_outage_profile max_rto =
  let start = Sim.Time.ms 200 in
  {
    Netsim.Fault_model.passthrough with
    Netsim.Fault_model.schedule =
      [
        Netsim.Fault_model.Outage
          { start; stop = Sim.Time.add start (Sim.Time.mul_int max_rto 2) };
      ];
  }

let fixed_case ~name ~variant ~profile =
  Core.Chaos.make_case ~name ~seed:1234 ~variant ~duration:(Sim.Time.sec 30)
    ~bytes:(Some (400 * mss)) ~forward:profile ()

let check_passes case =
  let o = Core.Chaos.run_case case in
  Alcotest.(check (list string))
    (Core.Chaos.case_name case ^ " passes all invariants")
    [] o.Core.Chaos.violations;
  Alcotest.(check bool) "completed" true o.Core.Chaos.completed

let test_ge_burst_loss_both_variants () =
  check_passes
    (fixed_case ~name:"ge-standard" ~variant:"standard"
       ~profile:ge_burst_profile);
  check_passes
    (fixed_case ~name:"ge-restricted" ~variant:"restricted"
       ~profile:ge_burst_profile)

let test_two_rto_outage_both_variants () =
  let profile =
    two_rto_outage_profile (Core.Chaos.case_max_rto Core.Chaos.default_case)
  in
  let case = fixed_case ~name:"outage-standard" ~variant:"standard" ~profile in
  let o = Core.Chaos.run_case case in
  Alcotest.(check (list string)) "standard passes" [] o.Core.Chaos.violations;
  Alcotest.(check bool) "outage actually forced timeouts" true
    (o.Core.Chaos.timeouts >= 2);
  check_passes
    (fixed_case ~name:"outage-restricted" ~variant:"restricted" ~profile)

let test_case_json_roundtrip () =
  List.iter
    (fun index ->
      let case = Core.Chaos.random_case ~root:7 ~index in
      let text = Report.Json.to_string (Core.Chaos.case_to_json case) in
      match Report.Json.of_string text with
      | Error e -> Alcotest.fail ("reparse failed: " ^ e)
      | Ok json -> (
          match Core.Chaos.case_of_json json with
          | Error e -> Alcotest.fail ("decode failed: " ^ e)
          | Ok back ->
              Alcotest.(check bool)
                (Printf.sprintf "case %d round-trips exactly" index)
                true (back = case)))
    (List.init 10 Fun.id)

let contains e key =
  let n = String.length key in
  let rec go i =
    i + n <= String.length e && (String.sub e i n = key || go (i + 1))
  in
  go 0

let test_case_json_errors () =
  let reject text expect_fragment =
    match Report.Json.of_string text with
    | Error _ -> ()
    | Ok json -> (
        match Core.Chaos.case_of_json json with
        | Ok _ -> Alcotest.fail ("decoded invalid case: " ^ text)
        | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "error %S names the field (%s)" e
                 expect_fragment)
              true
              (contains e expect_fragment))
  in
  reject "{}" "spec";
  reject {|{"spec":{"seed":12}}|} "seed";
  reject {|{"spec":{"topology":{"kind":"mesh"}}}|} "topology"

(* A misspelt key or a non-integral progress_rtos is refused by name,
   in a case and in a failure artifact; keys that start with _ stay
   free. *)
let test_case_json_strict_keys () =
  let spec =
    Report.Json.to_string_compact
      (Core.Spec.to_json Core.Chaos.default_case.Core.Chaos.spec)
  in
  let case fields = Printf.sprintf {|{"spec": %s, %s}|} spec fields in
  let decode text =
    Result.bind (Report.Json.of_string text) Core.Chaos.case_of_json
  in
  List.iter
    (fun (fields, key) ->
      match decode (case fields) with
      | Ok _ -> Alcotest.failf "decoded {%s}" fields
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%S names %s" e key) true
            (contains e key))
    [
      ( {|"progress_rtos": 2.7, "progres_rtos": 9, "check_completion": true|},
        "progres_rtos" );
      ({|"progress_rtos": 2.7, "check_completion": true|}, "progress_rtos");
    ];
  (match decode (case {|"progress_rtos": 2, "_note": "free"|}) with
  | Ok c -> Alcotest.(check int) "progress_rtos" 2 c.Core.Chaos.progress_rtos
  | Error e -> Alcotest.failf "refused a free key: %s" e);
  let path = Filename.temp_file "rss_chaos_artifact" ".json" in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        {|{"case": %s, "violations": [], "completed": true,
            "bytes_acked": 0, "trace": "", "trcae": ""}|}
        (case {|"progress_rtos": 2|}));
  let loaded = Core.Chaos.load_artifact path in
  Sys.remove path;
  match loaded with
  | Ok _ -> Alcotest.fail "loaded an artifact with a misspelt key"
  | Error e ->
      Alcotest.(check bool) (Printf.sprintf "%S names trcae" e) true
        (contains e "trcae")

(* A non-string violation, a non-integral bytes_acked, a non-boolean
   completed and a repeated key: each is refused, naming its key. *)
let test_artifact_json_strict_values () =
  let case =
    Report.Json.to_string_compact
      (Core.Chaos.case_to_json Core.Chaos.default_case)
  in
  let load fields =
    let path = Filename.temp_file "rss_chaos_artifact" ".json" in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc {|{"case": %s, %s}|} case fields);
    let loaded = Core.Chaos.load_artifact path in
    Sys.remove path;
    loaded
  in
  (match
     load {|"violations": ["v"], "completed": false, "bytes_acked": 0, "trace": "t"|}
   with
  | Ok a ->
      Alcotest.(check (list string)) "violations" [ "v" ]
        a.Core.Chaos.artifact_violations
  | Error e -> Alcotest.failf "refused a well-formed artifact: %s" e);
  List.iter
    (fun (fields, key) ->
      match load fields with
      | Ok _ -> Alcotest.failf "loaded {%s}" fields
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%S names %s" e key) true
            (contains e key))
    [
      ( {|"violations": [1], "completed": false, "bytes_acked": 0, "trace": ""|},
        "violations[0]" );
      ( {|"violations": [], "completed": false, "bytes_acked": 2.5, "trace": ""|},
        "bytes_acked" );
      ( {|"violations": [], "completed": "yes", "bytes_acked": 0, "trace": ""|},
        "completed" );
      ( {|"violations": [], "completed": false, "bytes_acked": 0, "trace": "",
          "trace": "x"|},
        "trace: given twice" );
    ]

(* The bytes a case and a failure artifact serialize to, pinned by MD5:
   an artifact written by an earlier build must still replay, so the
   writer may not move a byte. Seed 6's case 0 fails by design, so the
   sweep writes its artifact. *)
let test_json_bytes_pinned () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let cases =
    List.map
      (fun c -> Report.Json.to_string (Core.Chaos.case_to_json c))
      (Core.Chaos.random_cases ~root:7 10)
  in
  Alcotest.(check string) "case_to_json over random_cases ~root:7 10"
    "2bbb2aca166328025ef16c2138a956d6" (md5 (String.concat "\n" cases));
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rss_chaos_pin" in
  let outcomes = Core.Chaos.run_sweep (Core.Chaos.random_cases ~root:6 1) in
  match Core.Chaos.write_failures ~dir outcomes with
  | [ path ] ->
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      Alcotest.(check string) "seed 6 case 0's failure artifact"
        "df051999eaea65fa2daf1ad9e2eae0cb" (md5 bytes)
  | paths -> Alcotest.failf "expected one artifact, got %d" (List.length paths)

let quick_sweep_cases =
  (* Random cases shrunk to a 6-second horizon so the determinism and
     failure-capture tests stay fast; completion is not required. *)
  List.map
    (Core.Chaos.adjust ~duration:(Sim.Time.sec 6) ~check_completion:false)
    (Core.Chaos.random_cases ~root:42 4)

let traces outcomes = List.map (fun o -> o.Core.Chaos.trace) outcomes

let test_sweep_identical_across_jobs () =
  let sequential = Core.Chaos.run_sweep quick_sweep_cases in
  let parallel =
    Engine.Pool.with_pool ~jobs:4 (fun pool ->
        Core.Chaos.run_sweep ~pool quick_sweep_cases)
  in
  Alcotest.(check (list string))
    "traces byte-identical at --jobs 4" (traces sequential) (traces parallel);
  Alcotest.(check (list (list string)))
    "violations identical"
    (List.map (fun o -> o.Core.Chaos.violations) sequential)
    (List.map (fun o -> o.Core.Chaos.violations) parallel)

let test_sweep_captures_poisoned_cell () =
  (* An unknown slow-start variant raises inside run_case; the sweep
     must drain, convert the raise into a violation on that cell, and
     leave every surviving cell identical to the sequential run. *)
  let poisoned =
    List.mapi
      (fun i c ->
        if i = 1 then Core.Chaos.adjust ~variant:"no-such-policy" c else c)
      quick_sweep_cases
  in
  let sequential = Core.Chaos.run_sweep poisoned in
  let parallel =
    Engine.Pool.with_pool ~jobs:4 (fun pool ->
        Core.Chaos.run_sweep ~pool poisoned)
  in
  let bad = List.nth sequential 1 in
  Alcotest.(check bool) "poisoned cell failed" false (Core.Chaos.passed bad);
  (match bad.Core.Chaos.violations with
  | [ v ] ->
      Alcotest.(check bool) "violation is the captured exception" true
        (String.length v > 10 && String.sub v 0 10 = "exception:")
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected one exception violation, got %d"
           (List.length other)));
  Alcotest.(check (list string)) "surviving rows unchanged vs --jobs 1"
    (traces sequential) (traces parallel)

let test_failure_artifact_replay () =
  (* Force a failure (impossible deadline), write the artifact, reload
     it, and check the replay is byte-identical. *)
  let case =
    Core.Chaos.adjust ~duration:(Sim.Time.ms 500)
      (fixed_case ~name:"doomed case #1" ~variant:"standard"
         ~profile:ge_burst_profile)
  in
  let o = Core.Chaos.run_case case in
  Alcotest.(check bool) "case fails as constructed" false
    (Core.Chaos.passed o);
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rss_chaos_test" in
  (match Core.Chaos.write_failures ~dir [ o ] with
  | [ path ] -> (
      Alcotest.(check bool) "artifact name sanitized" true
        (Filename.basename path = "doomed_case__1.json");
      match Core.Chaos.replay path with
      | Error e -> Alcotest.fail ("replay failed: " ^ e)
      | Ok (fresh, identical) ->
          Alcotest.(check bool) "replay byte-identical" true identical;
          Alcotest.(check (list string)) "violations reproduced"
            o.Core.Chaos.violations fresh.Core.Chaos.violations;
          Sys.remove path)
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected one artifact, got %d" (List.length other)));
  (* A passing outcome writes nothing. *)
  Alcotest.(check (list string)) "no artifact for passing outcomes" []
    (Core.Chaos.write_failures ~dir
       [ { o with Core.Chaos.violations = [] } ])

let suite =
  [
    Alcotest.test_case "Gilbert-Elliott burst loss, both variants" `Quick
      test_ge_burst_loss_both_variants;
    Alcotest.test_case "2xRTO outage, both variants" `Quick
      test_two_rto_outage_both_variants;
    Alcotest.test_case "case JSON round-trip" `Quick test_case_json_roundtrip;
    Alcotest.test_case "case JSON error reporting" `Quick
      test_case_json_errors;
    Alcotest.test_case "case JSON refuses unknown keys" `Quick
      test_case_json_strict_keys;
    Alcotest.test_case "artifact JSON refuses malformed values" `Quick
      test_artifact_json_strict_values;
    Alcotest.test_case "case and artifact bytes pinned" `Quick
      test_json_bytes_pinned;
    Alcotest.test_case "sweep identical across jobs" `Quick
      test_sweep_identical_across_jobs;
    Alcotest.test_case "poisoned cell captured, batch drains" `Quick
      test_sweep_captures_poisoned_cell;
    Alcotest.test_case "failure artifact replay" `Quick
      test_failure_artifact_replay;
  ]
