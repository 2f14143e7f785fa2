(* Resume equivalence: a run killed at a checkpoint and resumed from
   its snapshot must emit the byte-identical outcome of a run that was
   never interrupted — including when the snapshot is stale (the
   process died mid-interval, after the last completed checkpoint), in
   which case the lost interval is simply re-simulated. *)

let tmp_counter = ref 0

let tmp_path name =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rss_resume_test_%d_%d_%s" (Unix.getpid ()) !tmp_counter
       name)

(* Arrival-driven and budgeted: the engine's table starts at 16 rows
   and doubles as arrivals fill it, up to its 400 flows. At 300
   arrivals/s it reaches that ceiling before the first 1 s boundary, so
   these drains restore a table grown from 16 rows; at 100/s (the
   growth test below) it grows again after the first resume. *)
let mf_spec ?(name = "resume-mf") ?(seed = 21) ?(arrival_rate = 300.) () =
  {
    Core.Spec.default with
    name;
    seed;
    duration = Sim.Time.of_sec 4.;
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
                flows = 400;
                arrival_rate = Some arrival_rate;
                arrival_pareto_shape = None;
                mean_size = Some 150_000;
                size_pareto_shape = 1.3;
              };
        };
      ];
  }

let outcome_json o = Report.Json.to_string (Core.Spec.outcome_to_json o)

let checkpoint ~path ?(stop = fun () -> false) () =
  {
    Core.Spec.snapshot_path = path;
    interval = Sim.Time.of_sec 1.;
    should_stop = stop;
  }

let run_until_drained ?resume_from spec ~path =
  match
    Core.Spec.run
      ~checkpoint:(checkpoint ~path ~stop:(fun () -> true) ())
      ?resume_from spec
  with
  | _ -> Alcotest.fail "expected Drained"
  | exception Core.Spec.Drained { at; snapshot } -> (at, snapshot)

let copy_file src dst =
  let ic = open_in_bin src in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin dst in
  output_string oc contents;
  close_out oc

let test_boundary_drain_resume () =
  let spec = mf_spec () in
  let unbroken = Core.Spec.run spec in
  let path = tmp_path "boundary.snap" in
  let at, snapshot = run_until_drained spec ~path in
  Alcotest.(check (float 0.))
    "drained at the first checkpoint boundary" 1.
    (Sim.Time.to_sec at);
  let resumed = Core.Spec.run ~resume_from:snapshot spec in
  Alcotest.(check bool) "outcome carries resume_from" true
    (resumed.Core.Spec.resume_from = Some snapshot);
  Alcotest.(check bool) "unbroken outcome has no resume_from" true
    (unbroken.Core.Spec.resume_from = None);
  Alcotest.(check string) "resumed == unbroken, byte for byte"
    (outcome_json unbroken) (outcome_json resumed);
  Sys.remove path

let test_stale_snapshot_resume () =
  (* Kill mid-interval: progress past a checkpoint is lost, and the
     run resumes from the older boundary image. *)
  let spec = mf_spec ~seed:22 () in
  let unbroken = Core.Spec.run spec in
  let path = tmp_path "stale.snap" in
  let at1, snap1 = run_until_drained spec ~path in
  let stale = tmp_path "stale_copy.snap" in
  copy_file snap1 stale;
  (* the job progressed one more interval before "dying" *)
  let at2, _snap2 = run_until_drained spec ~path ~resume_from:snap1 in
  Alcotest.(check bool) "second drain is later" true
    Sim.Time.(at1 < at2);
  let resumed = Core.Spec.run ~resume_from:stale spec in
  Alcotest.(check string) "stale-snapshot resume == unbroken"
    (outcome_json unbroken) (outcome_json resumed);
  List.iter Sys.remove [ path; path ^ ".prev"; stale ]

(* Drain at every boundary in turn — resume, drain, resume... — and
   return the final outcome with the table capacity of each image. *)
let run_in_slices spec ~path =
  let rec slices resume caps =
    if List.length caps > 10 then Alcotest.fail "did not complete in 10 slices"
    else
      match
        Core.Spec.run
          ~checkpoint:(checkpoint ~path ~stop:(fun () -> true) ())
          ?resume_from:resume spec
      with
      | outcome -> (outcome, List.rev caps)
      | exception Core.Spec.Drained { snapshot; _ } ->
          let cap =
            Sim.Snapshot.get_int (Sim.Snapshot.load ~path:snapshot) "mf.ft.cap"
          in
          slices (Some snapshot) (cap :: caps)
  in
  let sliced = slices None [] in
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ path; path ^ ".prev" ];
  sliced

let test_multi_slice_resume () =
  (* The final outcome still matches one uninterrupted run. *)
  let spec = mf_spec ~seed:23 () in
  let unbroken = Core.Spec.run spec in
  let outcome, caps = run_in_slices spec ~path:(tmp_path "slices.snap") in
  Alcotest.(check bool) "took several slices" true (List.length caps >= 3);
  Alcotest.(check string) "sliced == unbroken" (outcome_json unbroken)
    (outcome_json outcome)

let test_slices_across_growth () =
  (* The 1 s image holds 64 rows, and the table doubles again before the
     2 s boundary: the rows it hands out after the resume must be the
     rows the unbroken run's table handed out. *)
  let spec = mf_spec ~seed:27 ~arrival_rate:100. () in
  let unbroken = Core.Spec.run spec in
  let outcome, caps = run_in_slices spec ~path:(tmp_path "growth.snap") in
  Alcotest.(check (list int)) "table rows at each boundary" [ 64; 128; 128 ]
    caps;
  Alcotest.(check string) "sliced == unbroken" (outcome_json unbroken)
    (outcome_json outcome)

let test_checkpoint_requires_support () =
  let bulk = { Core.Spec.default with Core.Spec.name = "bulk" } in
  Alcotest.(check bool) "bulk spec is not snapshot-supported" false
    (Core.Spec.snapshot_supported bulk);
  Alcotest.(check bool) "many-flows spec is" true
    (Core.Spec.snapshot_supported (mf_spec ()));
  Alcotest.(check bool) "checkpointing a bulk spec raises" true
    (match
       Core.Spec.run
         ~checkpoint:(checkpoint ~path:(tmp_path "bulk.snap") ())
         bulk
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_resume_identity_mismatch () =
  let path = tmp_path "identity.snap" in
  let _at, snapshot = run_until_drained (mf_spec ~seed:24 ()) ~path in
  let other = mf_spec ~name:"other-spec" ~seed:25 () in
  Alcotest.(check bool) "resuming a different spec raises" true
    (match Core.Spec.run ~resume_from:snapshot other with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Sys.remove path

(* A checkpoint that cannot be written fails the run with the write's
   own error, whether or not the run was asked to stop: a drain must
   not report a snapshot that is not on disk. *)
let test_unwritable_checkpoint_fails () =
  let path = Filename.concat (tmp_path "no-such-dir") "checkpoint.snap" in
  List.iter
    (fun (what, stop) ->
      let checkpoint = checkpoint ~path ~stop () in
      match Core.Spec.run ~checkpoint (mf_spec ()) with
      | _ -> Alcotest.failf "%s: the run finished" what
      | exception Core.Spec.Drained _ -> Alcotest.failf "%s: drained" what
      | exception Sys_error _ -> ())
    [ ("run on", fun () -> false); ("stop asked", fun () -> true) ]

(* An undrained run leaves its last two images in order: [path] from the
   last boundary before the end, [path.prev] from the one before. *)
let test_images_land_in_order () =
  let spec = mf_spec ~seed:26 () in
  let path = tmp_path "order.snap" in
  ignore (Core.Spec.run ~checkpoint:(checkpoint ~path ()) spec);
  let clock_ns file =
    let image = In_channel.with_open_bin file In_channel.input_all in
    Sim.Snapshot.get_int (Sim.Snapshot.of_string image) "spec.clock_ns"
  in
  Alcotest.(check int) "path holds the 3 s image" 3_000_000_000
    (clock_ns path);
  Alcotest.(check int) "path.prev holds the 2 s image" 2_000_000_000
    (clock_ns (path ^ ".prev"));
  Sys.remove path;
  Sys.remove (path ^ ".prev")

let suite =
  [
    Alcotest.test_case "boundary drain + resume == unbroken" `Quick
      test_boundary_drain_resume;
    Alcotest.test_case "stale (mid-interval) snapshot resume == unbroken"
      `Quick test_stale_snapshot_resume;
    Alcotest.test_case "many slices == unbroken" `Quick
      test_multi_slice_resume;
    Alcotest.test_case "checkpoint requires snapshot support" `Quick
      test_checkpoint_requires_support;
    Alcotest.test_case "resume checks spec identity" `Quick
      test_resume_identity_mismatch;
    Alcotest.test_case "an unwritable checkpoint fails the run" `Quick
      test_unwritable_checkpoint_fails;
    Alcotest.test_case "images land in order" `Quick test_images_land_in_order;
    Alcotest.test_case "slices across table growth == unbroken" `Quick
      test_slices_across_growth;
  ]
