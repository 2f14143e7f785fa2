(* Reference benchmark: five end-to-end workloads, measured from
   outside the library through its public front doors (Core.Spec,
   Serve.Supervisor).

   reference.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--samples N]

   --trace 0 (default) takes end-to-end samples for S seconds (at least
   N samples), each in a fresh child process of this executable, and
   reports the median of each metric. --trace 1 makes the separate
   layer-by-layer run instead. Without --workload every workload runs in
   turn. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Results go to results/BENCH_reference.json (and, with --trace 1,
   results/BENCH_reference_spans.json). The exit code is 1 when an
   output check failed, 2 on a usage error. *)

open Report.Json

let now = Unix.gettimeofday

(* --- results of one workload --------------------------------------- *)

type outcome = {
  workload : string;
  attempted : int;
  failed : int;
  errors : string list;
  digests : string list;
  values : (string * string * float list) list;  (** name, unit, samples *)
}

let num f = Number f
let int i = Number (float_of_int i)

(* Every metric of [table] read off [run], or NaN when nothing ran. *)
let values table run =
  List.map
    (fun m ->
      ( m.Metrics.name,
        m.Metrics.unit,
        match run with Some r -> m.Metrics.samples r | None -> [ nan ] ))
    table

let metric_json (name, unit, samples) =
  let q1, med, q3 = Stats.quartiles samples in
  Obj
    ([
       ("name", String name);
       ("unit", String unit);
       ("median", num med);
       ("q1", num q1);
       ("q3", num q3);
       ("iqr", num (q3 -. q1));
       ("n", int (List.length samples));
     ]
    @ (match Stats.tail samples with
      | Some (p, v) -> [ ("tail_p", num p); ("tail", num v) ]
      | None -> [])
    @ [ ("samples", List (List.map num samples)) ])

let outcome_json o =
  Obj
    [
      ("name", String o.workload);
      ("attempted", int o.attempted);
      ("failed", int o.failed);
      ("error_rate", num (float_of_int o.failed /. float_of_int (max 1 o.attempted)));
      ("errors", List (List.map (fun e -> String e) o.errors));
      ("digests", List (List.map (fun d -> String d) o.digests));
      ("metrics", List (List.map metric_json o.values));
    ]

let print_outcome ~trace o =
  Printf.printf "\n%s (%s): attempted %d, failed %d, error_rate %g\n" o.workload
    (if trace then "layers, traced run" else "end to end")
    o.attempted o.failed
    (float_of_int o.failed /. float_of_int (max 1 o.attempted));
  List.iter (Printf.printf "  ERROR %s\n") o.errors;
  List.iter (Printf.printf "  digest %s\n") o.digests;
  let rows =
    List.map
      (fun (name, unit, s) ->
        let q1, med, q3 = Stats.quartiles s in
        [
          name;
          Printf.sprintf "%.6g" med;
          Printf.sprintf "%.4g" (q3 -. q1);
          Printf.sprintf "%.6g..%.6g" q1 q3;
          string_of_int (List.length s);
          (match Stats.tail s with
          | Some (p, v) -> Printf.sprintf "p%g=%.6g" (100. *. p) v
          | None -> "-");
          unit;
        ])
      o.values
  in
  print_string
    (Report.Table.render
       ~aligns:
         Report.Table.[ Left; Right; Right; Right; Right; Right; Left ]
       ~headers:[ "metric"; "median"; "IQR"; "q1..q3"; "n"; "tail"; "unit" ]
       ~rows ())

(* --- one end-to-end sample (runs in a child process) --------------- *)

(* Runs the workload once and prints one JSON line. A spec or job
   fails when it raises or fails a check; a batch-level error (paper
   direction, serve counts) fails one more. *)
let sample (w : Inputs.t) ~seed =
  let texts = w.Inputs.specs ~seed in
  let dir = Passes.fresh_dir w.Inputs.name in
  let sim_s, wall_s, setup_s, latencies, digests, item_errors, batch_errors =
    Fun.protect
      ~finally:(fun () -> Passes.remove_tree dir)
      (fun () ->
        if w.Inputs.served then
          let s = Passes.serve_batch ~jobs:1 ~dir texts in
          let runs =
            List.sort (fun a b -> compare a.Passes.job b.Passes.job) s.Passes.jobs_run
          in
          ( Metrics.sum (fun r -> r.Passes.job_sim_s) runs,
            s.Passes.wall_s,
            s.Passes.setup_s,
            s.Passes.latencies,
            List.map (fun r -> r.Passes.outcome_digest) runs,
            List.map (fun r -> r.Passes.job_errors) runs,
            s.Passes.serve_errors )
        else
          let t0 = now () in
          let runs =
            List.map
              (fun text ->
                try Ok (Passes.run_spec ~write:dir ~t0 text)
                with e -> Error (Printexc.to_string e))
              texts
          in
          let wall_s = now () -. t0 in
          let ok = List.filter_map Result.to_option runs in
          ( Metrics.sum (fun r -> r.Passes.sim_s) ok,
            wall_s,
            Metrics.sum (fun r -> r.Passes.parse_s +. r.Passes.validate_s +. r.Passes.build_s) ok,
            List.map (fun r -> r.Passes.finished_at) ok,
            List.map (fun r -> r.Passes.digest) ok,
            List.map (function Ok r -> r.Passes.errors | Error e -> [ e ]) runs,
            if w.Inputs.name = "paper_path" then
              Check.paper_errors (List.concat_map (fun r -> r.Passes.results) ok)
            else [] ))
  in
  let attempted = List.length texts in
  let failed =
    min attempted
      (List.length (List.filter (fun e -> e <> []) item_errors)
      + List.length batch_errors)
  in
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  let strings l = List (List.map (fun e -> String e) l) in
  print_endline
    (to_string_compact
       (Obj
          [
            ("sim_s", num sim_s);
            ("wall_s", num wall_s);
            ("setup_s", num setup_s);
            ("latencies", List (List.map num latencies));
            ("digests", strings digests);
            ("attempted", int attempted);
            ("failed", int failed);
            ("errors", strings (List.concat item_errors @ batch_errors));
            ( "peak_heap_mb",
              num (float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.) );
          ]))

(* --- end-to-end run: samples in child processes -------------------- *)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

let spawn_sample (w : Inputs.t) ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--sample"; w.Inputs.name; "--seed"; string_of_int seed |]
  in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, of_string (last_line out)) with
  | Unix.WEXITED 0, Ok j -> Ok j
  | Unix.WEXITED 0, Error e -> Error ("sample output unreadable: " ^ e)
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
      Error (Printf.sprintf "sample process ended with status %d" c)

(* Hard ceiling on one run, whatever --seconds asks for. *)
let max_run_s = 150.

let e2e_run (w : Inputs.t) ~seed ~seconds ~min_samples =
  let start = now () in
  let rec loop acc walls errors =
    let n = List.length acc + List.length errors in
    let elapsed = now () -. start in
    let typical = match walls with [] -> 0. | _ -> Stats.median walls in
    let budget = if n < min_samples then max_run_s else Float.min seconds max_run_s in
    if n > 0 && elapsed +. typical > budget then (List.rev acc, List.rev errors)
    else
      let t0 = now () in
      match spawn_sample w ~seed with
      | Ok j -> loop (j :: acc) ((now () -. t0) :: walls) errors
      | Error e -> loop acc ((now () -. t0) :: walls) (e :: errors)
  in
  let samples, spawn_errors = loop [] [] [] in
  let n_specs = List.length (w.Inputs.specs ~seed) in
  let digests =
    List.map
      (fun j ->
        List.map (fun d -> Option.value ~default:"" (string_value d)) (Metrics.flist "digests" j))
      samples
  in
  let mismatched = Check.digest_mismatches digests in
  let sample_errors =
    List.concat_map
      (fun j -> List.filter_map string_value (Metrics.flist "errors" j))
      samples
  in
  let attempted =
    List.fold_left (fun a j -> a + int_of_float (Metrics.fnum "attempted" j)) 0 samples
    + (n_specs * List.length spawn_errors)
  in
  {
    workload = w.Inputs.name;
    attempted;
    failed =
      min attempted
        (List.fold_left (fun a j -> a + int_of_float (Metrics.fnum "failed" j)) 0 samples
        + (n_specs * List.length spawn_errors)
        + (n_specs * List.length mismatched));
    errors =
      spawn_errors @ sample_errors
      @ List.map
          (Printf.sprintf "sample %d: outcome digests differ from sample 0")
          mismatched;
    digests = (match digests with d :: _ -> d | [] -> []);
    values = values Metrics.end_to_end (if samples = [] then None else Some samples);
  }

(* --- layer-by-layer run (traced) ------------------------------------ *)

let named runs = List.map (fun r -> (r.Passes.name, r.Passes.digest)) runs
let checkpoint_every = Sim.Time.sec 1

(* The layer run repeats rounds of four adjacent passes over this
   workload's specs — native (as specified: every workload runs at
   domains 1; artifacts written), domains 2, traced (scheduler
   dispatches counted) and checkpointed (only the specs that can
   checkpoint and outlast one interval) — so each ratio between them
   compares passes taken seconds apart on a host whose speed drifts over
   minutes. After the first round the job service runs the same specs at
   jobs 1 and at jobs 2; then more rounds until --seconds is used. Every
   pass must reproduce the first native pass's digests. *)
let layer_run (w : Inputs.t) ~seed ~seconds =
  let start = now () in
  let texts = List.mapi (fun i text -> (i, text)) (w.Inputs.specs ~seed) in
  let checkpointable =
    List.filter
      (fun (_, text) ->
        match Passes.parse text with
        | s ->
            Core.Spec.snapshot_supported s
            && Sim.Time.compare checkpoint_every s.Core.Spec.duration < 0
        | exception _ -> false)
      texts
  in
  let dir = Passes.fresh_dir (w.Inputs.name ^ "-layers") in
  let attempted = ref 0 and errors = ref [] in
  let fail e = errors := e :: !errors in
  (* Each run comes with the size of the snapshot image it left, 0
     without [checkpointed]. *)
  let direct ?domains ?traced ?write ?(checkpointed = false) tag texts =
    fst
      (Passes.timed tag (fun () ->
           let t0 = now () in
           List.filter_map
             (fun (i, text) ->
               incr attempted;
               let path = Filename.concat dir (Printf.sprintf "spec-%d.snap" i) in
               let checkpoint =
                 if checkpointed then
                   Some
                     {
                       Core.Spec.snapshot_path = path;
                       interval = checkpoint_every;
                       should_stop = (fun () -> false);
                     }
                 else None
               in
               match Passes.run_spec ?domains ?traced ?checkpoint ?write ~t0 text with
               | r ->
                   List.iter fail r.Passes.errors;
                   Some (r, Passes.file_size path)
               | exception e ->
                   fail (tag ^ ": " ^ Printexc.to_string e);
                   None)
             texts))
  in
  let reference = ref None in
  let check tag digests =
    let expected = Option.value !reference ~default:digests in
    reference := Some expected;
    List.iter
      (fun (name, d) ->
        if List.assoc_opt name expected <> Some d then
          fail (Printf.sprintf "%s: %s: outcome digest differs from the native pass" tag name))
      digests
  in
  let round () =
    let t0 = now () in
    let native = List.map fst (direct ~write:dir "pass native" texts) in
    let d2 = List.map fst (direct ~domains:2 "pass domains=2" texts) in
    let traced = List.map fst (direct ~traced:true "pass traced" texts) in
    let checkpointed = direct ~checkpointed:true "pass checkpointed" checkpointable in
    check "native" (named native);
    check "domains=2" (named d2);
    check "traced" (named traced);
    check "checkpointed" (named (List.map fst checkpointed));
    ({ Metrics.native; d2; traced; checkpointed }, now () -. t0)
  in
  let serve jobs =
    let sdir = Filename.concat dir (Printf.sprintf "serve-j%d" jobs) in
    let s =
      fst
        (Passes.timed (Printf.sprintf "pass serve jobs=%d" jobs) (fun () ->
             Passes.serve_batch ~jobs ~dir:sdir (List.map snd texts)))
    in
    attempted := !attempted + List.length texts;
    List.iter fail s.Passes.serve_errors;
    List.iter (fun r -> List.iter fail r.Passes.job_errors) s.Passes.jobs_run;
    check (Printf.sprintf "serve jobs=%d" jobs)
      (List.map (fun r -> (r.Passes.job, r.Passes.outcome_digest)) s.Passes.jobs_run);
    s
  in
  let layers =
    fst
      (Passes.timed w.Inputs.name (fun () ->
           let first, round_s = round () in
           let serve_j1 = serve 1 in
           let serve_j2 = serve 2 in
           let rec more acc =
             if now () -. start +. round_s > seconds || List.length acc >= 20 then acc
             else more (fst (round ()) :: acc)
           in
           { Metrics.rounds = first :: List.rev (more []); serve_j1; serve_j2 }))
  in
  Passes.remove_tree dir;
  {
    workload = w.Inputs.name;
    attempted = !attempted;
    failed = min !attempted (List.length !errors);
    errors = List.rev !errors;
    digests = List.map (fun r -> r.Passes.digest) (Metrics.first layers).Metrics.native;
    values = values Metrics.per_layer (Some layers);
  }

(* --- machine context and result files ------------------------------ *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* The commit of a git checkout, read from .git without running git;
   "unknown" elsewhere. *)
let commit () =
  let head = String.trim (read_file ".git/HEAD") in
  let prefix = "ref: " in
  let id =
    if String.starts_with ~prefix head then
      let n = String.length prefix in
      let ref_path = String.sub head n (String.length head - n) in
      String.trim (read_file (Filename.concat ".git" ref_path))
    else head
  in
  if id = "" then "unknown" else id

let machine () =
  Obj
    [
      ("nproc", int (Domain.recommended_domain_count ()));
      ("ocaml_version", String Sys.ocaml_version);
      ("word_size", int Sys.word_size);
      ("os_type", String Sys.os_type);
      ("commit", String (commit ()));
    ]

let write_results ~seed ~seconds ~trace outcomes =
  Serve.Artifacts.ensure_dir "results";
  let write name json =
    Out_channel.with_open_bin (Filename.concat "results" name) (fun oc ->
        output_string oc (to_string json))
  in
  write "BENCH_reference.json"
    (Obj
       [
         ("schema", String "bench-reference/1");
         ("machine", machine ());
         ("seed", int seed);
         ("seconds", num seconds);
         ("trace", Bool trace);
         ("workloads", List (List.map outcome_json outcomes));
       ]);
  if trace then write "BENCH_reference_spans.json" (Passes.spans_json ())

(* The contract line: every metric's median for one workload, or
   <workload>.<metric> when several ran. *)
let result_line outcomes =
  let attempted = List.fold_left (fun a o -> a + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun a o -> a + o.failed) 0 outcomes in
  let key o m = match outcomes with [ _ ] -> m | _ -> o.workload ^ "." ^ m in
  let metrics =
    List.concat_map
      (fun o ->
        List.map
          (fun (m, unit, samples) ->
            let v = Stats.median samples in
            ( key o m,
              Obj
                [
                  ("value", if Float.is_finite v then num v else Null);
                  ("unit", String unit);
                ] ))
          o.values)
      outcomes
  in
  to_string_compact
    (Obj
       [
         ("correct", Bool (failed = 0 && attempted > 0));
         ("attempted", int (max 1 attempted));
         ("failed", int (if attempted = 0 then 1 else failed));
         ("metrics", Obj metrics);
       ])

(* --- command line --------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and samples = ref 5 and sample_of = ref None in
  let usage =
    "reference.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--samples N]\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.Inputs.name) Inputs.all)
  in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N added to every generated spec's seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end samples, or the layer run");
      ("--samples", Arg.Set_int samples, "N minimum end-to-end samples (default 5)");
      ("--sample", Arg.String (fun s -> sample_of := Some s), "NAME (internal) one sample");
    ]
  in
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  let find name =
    match Inputs.find name with Some w -> w | None -> bad ("unknown workload " ^ name)
  in
  match !sample_of with
  | Some name -> sample (find name) ~seed:!seed
  | None ->
      if !trace <> 0 && !trace <> 1 then bad "--trace expects 0 or 1";
      if !samples < 1 || !seconds < 0. then bad "--samples and --seconds must be positive";
      let trace = !trace = 1 in
      let workloads =
        match !workload with Some n -> [ find n ] | None -> Inputs.all
      in
      Printf.printf "reference benchmark: seed %d, %g s per workload, %s\n%!" !seed
        !seconds
        (if trace then "layer run (traced)" else "end-to-end samples");
      let outcomes =
        List.map
          (fun w ->
            let o =
              if trace then layer_run w ~seed:!seed ~seconds:!seconds
              else e2e_run w ~seed:!seed ~seconds:!seconds ~min_samples:!samples
            in
            print_outcome ~trace o;
            flush stdout;
            o)
          workloads
      in
      (try Sys.rmdir (Filename.concat "results" "refbench") with Sys_error _ -> ());
      write_results ~seed:!seed ~seconds:!seconds ~trace outcomes;
      print_endline (result_line outcomes);
      if List.exists (fun o -> o.failed > 0) outcomes then exit 1
