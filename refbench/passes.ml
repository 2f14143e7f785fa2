(* One pass = one workload's batch run once, either through Core.Spec
   directly or as jobs through Serve.Supervisor, timed phase by phase
   from outside the library. *)

let now = Unix.gettimeofday

(* --- spans: workload > pass > spec > phase, kept in memory ----------- *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  start : float;
  stop : float;
}

let spans : span list ref = ref []
let stack = ref []
let next_id = ref 0

(* Run [f] inside a span named [name]; returns its result and duration.
   Main domain only. *)
let timed name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    stack := List.tl !stack;
    spans := { id; parent; name; start = t0; stop = t1 } :: !spans;
    t1 -. t0
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let spans_json () =
  let open Report.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Number (float_of_int s.id));
             ("parent", Number (float_of_int s.parent));
             ("name", String s.name);
             ("start_s", Number s.start);
             ("end_s", Number s.stop);
           ])
       !spans)

(* --- temporary directories inside the working directory ------------ *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir tag =
  let dir =
    Filename.concat "results"
      (Filename.concat "refbench" (Printf.sprintf "%s-%d" tag (Unix.getpid ())))
  in
  remove_tree dir;
  Serve.Artifacts.ensure_dir dir;
  dir

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* --- one spec through Core.Spec ----------------------------------- *)

type mf = {
  created : int;
  completed : int;
  loss_events : int;
  cwnd_x_active : float;  (** Σ mean cwnd × active flows, over shards *)
  active : int;
  table_capacity : int;
  wheel_pending : int;
}

type spec_run = {
  name : string;
  sim_s : float;
  flow_s : float;  (** simulated flows × simulated seconds *)
  parse_s : float;
  validate_s : float;
  build_s : float;
  execute_s : float;
  write_s : float;
  finished_at : float;  (** seconds from the pass start *)
  digest : string;
  errors : string list;
  results : Core.Spec.flow_result list;
  minor_words : float;  (** Gc.quick_stat deltas around execute *)
  promoted_words : float;
  major_collections : int;
  events : int;  (** heap dispatches; traced passes only *)
  counters : (string * float) list;
      (** last registry sample, by name; traced passes only *)
  mf : mf;
}

let no_mf =
  {
    created = 0; completed = 0; loss_events = 0; cwnd_x_active = 0.; active = 0;
    table_capacity = 0; wheel_pending = 0;
  }

let parse text =
  match Report.Json.of_string text with
  | Error e -> failwith ("spec JSON: " ^ e)
  | Ok j -> (
      match Core.Spec.of_json j with
      | Error e -> failwith ("spec: " ^ e)
      | Ok s -> s)

let flows_of (spec : Core.Spec.t) =
  List.fold_left
    (fun acc (f : Core.Spec.flow) ->
      match f.Core.Spec.workload with
      | Core.Spec.Many_flows { flows; _ } -> acc + flows
      | _ -> acc + 1)
    0 spec.Core.Spec.flows

let mf_of built =
  List.fold_left
    (fun acc e ->
      let module M = Workload.Many_flows in
      {
        created = acc.created + M.created e;
        completed = acc.completed + M.completed e;
        loss_events = acc.loss_events + M.loss_events e;
        cwnd_x_active =
          acc.cwnd_x_active +. (M.mean_cwnd_segments e *. float_of_int (M.active e));
        active = acc.active + M.active e;
        table_capacity = acc.table_capacity + Tcp.Flow_table.capacity (M.table e);
        wheel_pending = acc.wheel_pending + Sim.Timer_wheel.pending (M.wheel e);
      })
    no_mf
    (Core.Spec.many_flows_engines built)

let last_sample (o : Core.Spec.outcome) =
  match o.Core.Spec.metrics with
  | None -> []
  | Some m -> (
      match List.rev m.Core.Spec.samples with
      | [] -> []
      | (_, values) :: _ -> List.mapi (fun i n -> (n, values.(i))) m.Core.Spec.metric_names)

(* Parse, validate, build, execute and (with [write]) write the
   artifacts of one Spec-JSON document. [domains] overrides the spec's
   own; [traced] turns record_trace on and narrows the ring to
   scheduler dispatches, so its total counts heap events; [checkpoint]
   is passed to execute. *)
let run_spec ?domains ?(traced = false) ?checkpoint ?write ~t0 text =
  fst
    (timed "spec" (fun () ->
        let spec, parse_s = timed "parse" (fun () -> parse text) in
        let spec =
          {
            spec with
            Core.Spec.domains = Option.value domains ~default:spec.Core.Spec.domains;
            record_trace = traced || spec.Core.Spec.record_trace;
          }
        in
        let (), validate_s = timed "validate" (fun () -> Core.Spec.validate spec) in
        let built, build_s = timed "build" (fun () -> Core.Spec.build spec) in
        if traced then
          Option.iter
            (fun tr -> Trace.set_mask tr Trace.Code.cat_sched)
            (Core.Spec.trace built);
        let g0 = Gc.quick_stat () in
        let outcome, execute_s =
          timed "execute" (fun () -> Core.Spec.execute ?checkpoint built)
        in
        let g1 = Gc.quick_stat () in
        let (), write_s =
          timed "write" (fun () ->
              Option.iter
                (fun dir -> ignore (Serve.Artifacts.write_outcome ~dir spec outcome))
                write)
        in
        let sim_s = Sim.Time.to_sec spec.Core.Spec.duration in
        {
          name = spec.Core.Spec.name;
          sim_s;
          flow_s = float_of_int (flows_of spec) *. sim_s;
          parse_s;
          validate_s;
          build_s;
          execute_s;
          write_s;
          finished_at = now () -. t0;
          digest = Check.digest outcome;
          errors = Check.outcome_errors spec outcome;
          results = outcome.Core.Spec.results;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          events =
            (match Core.Spec.trace built with
            | Some tr when traced -> Trace.total tr
            | _ -> 0);
          counters = (if traced then last_sample outcome else []);
          mf = mf_of built;
        }))

(* --- a batch through the job service ------------------------------- *)

type job_run = {
  job : string;
  queued_s : float;  (** batch start to the runner picking the job up *)
  run_s : float;  (** inside the runner: build + execute *)
  job_build_s : float;
  job_sim_s : float;
  outcome_digest : string;
  job_errors : string list;
}

type served = {
  wall_s : float;
  setup_s : float;  (** Σ parse + validate + build *)
  latencies : float list;  (** batch start to each job's "finished" *)
  jobs_run : job_run list;  (** in completion order *)
  stats : Serve.Supervisor.stats;
  journal_bytes : int;
  serve_errors : string list;  (** batch-level: counts, artifacts *)
}

let finished_job line =
  try Scanf.sscanf line "job %s finished" (fun id -> Some id) with _ -> None

(* Submit every document at once and drain the queue ([once]), with
   checkpoints every simulated second. The runner wraps the default
   (Core.Spec.run) only to time it; it runs on pool domains at
   [jobs > 1], hence the lock. *)
let serve_batch ~jobs ~dir texts =
  let t0 = now () in
  let specs, parse_validate =
    List.fold_left
      (fun (specs, acc) text ->
        let spec, p = timed "parse" (fun () -> parse text) in
        let (), v = timed "validate" (fun () -> Core.Spec.validate spec) in
        (spec :: specs, acc +. p +. v))
      ([], 0.) texts
  in
  let specs = List.rev specs in
  let lock = Mutex.create () in
  let runs = ref [] in
  let runner ~job_id ~checkpoint ~resume_from spec =
    let start = now () in
    let built = Core.Spec.build spec in
    let built_at = now () in
    let outcome = Core.Spec.execute ?checkpoint ?resume_from built in
    let r =
      {
        job = job_id;
        queued_s = start -. t0;
        run_s = now () -. start;
        job_build_s = built_at -. start;
        job_sim_s = Sim.Time.to_sec spec.Core.Spec.duration;
        outcome_digest = Check.digest outcome;
        job_errors = Check.outcome_errors spec outcome;
      }
    in
    Mutex.protect lock (fun () -> runs := r :: !runs);
    outcome
  in
  let finished = ref [] in
  let log line =
    match finished_job line with
    | Some id -> finished := (id, now () -. t0) :: !finished
    | None -> ()
  in
  let state_dir = Filename.concat dir "state" in
  let stats, _ =
    timed "supervisor" (fun () ->
        Serve.Supervisor.run ~runner ~specs
          {
            Serve.Supervisor.default_config with
            spool = Filename.concat dir "spool";
            state_dir;
            jobs;
            checkpoint_every = Sim.Time.sec 1;
            once = true;
            log;
          })
  in
  let wall_s = now () -. t0 in
  let jobs_run = List.rev !runs in
  let n = List.length texts in
  let artifact_errors =
    List.filter_map
      (fun r ->
        let path =
          Filename.concat (Filename.concat state_dir "outcomes")
            (r.job ^ "_outcome.json")
        in
        match Digest.to_hex (Digest.file path) with
        | d when d = r.outcome_digest -> None
        | _ -> Some (Printf.sprintf "%s: artifact differs from the outcome" r.job)
        | exception Sys_error e -> Some (Printf.sprintf "%s: %s" r.job e))
      jobs_run
  in
  let count_errors =
    (if stats.Serve.Supervisor.completed <> n then
       [ Printf.sprintf "serve: completed %d of %d" stats.Serve.Supervisor.completed n ]
     else [])
    @
    if stats.Serve.Supervisor.quarantined <> 0 then
      [ Printf.sprintf "serve: %d quarantined" stats.Serve.Supervisor.quarantined ]
    else []
  in
  {
    wall_s;
    setup_s =
      parse_validate +. List.fold_left (fun a r -> a +. r.job_build_s) 0. jobs_run;
    latencies = List.rev_map snd !finished;
    jobs_run;
    stats;
    journal_bytes = file_size (Filename.concat state_dir "journal.jsonl");
    serve_errors = count_errors @ artifact_errors;
  }
