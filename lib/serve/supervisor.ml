(* Supervised job service.

   Jobs are Spec-JSON files dropped in a spool directory (or injected
   directly by the CLI's stdin reader).  Each loop iteration scans the
   spool, journals new submissions, runs every due job as one
   [Engine.Pool.map_collect] batch, and sorts the verdicts:

     Ok outcome                 -> artifacts + journal Finished
     Error (Spec.Drained _)     -> journal Checkpointed, requeue to
                                   resume from the snapshot
     Error (Invalid_argument _) -> deterministic poison: quarantine
                                   immediately as a replayable artifact
     Error (Snapshot.Corrupt _) -> drop the resume image, restart the
                                   (deterministic) job from scratch
     Error anything else        -> transient until proven otherwise:
                                   retry with bounded exponential
                                   backoff, quarantine after
                                   [max_attempts]

   Retries re-run the identical spec — seeds live in the spec, so an
   attempt is a faithful reproduction, and a failure that happens
   every time is recognized as deterministic by exhausting attempts.

   Graceful drain: the [stop] atomic (set by the CLI's SIGTERM/SIGINT
   handlers) is polled by every running job's checkpoint hook, so
   in-flight snapshot-supported jobs stop at their next checkpoint
   boundary, journal Checkpointed, and the loop exits; a later start
   resumes them.  SIGKILL skips the journal entry but not the
   snapshot files — recovery trusts the files on disk, not the
   journal's say-so.  The per-job wall [deadline] drains the same way,
   slicing arbitrarily long jobs into resumable pieces. *)

module Json = Report.Json

type config = {
  spool : string;
  state_dir : string;
  jobs : int;
  checkpoint_every : Sim.Time.t;
  max_attempts : int;
  backoff_base : float;  (** seconds; attempt n waits base * 2^(n-1) *)
  backoff_max : float;  (** backoff ceiling, seconds *)
  deadline : float option;
      (** wall seconds a job may run before being drained to its
          snapshot and requeued *)
  poll_interval : float;  (** spool scan period, seconds *)
  once : bool;  (** drain the current queue and exit *)
  log : string -> unit;
}

let default_config =
  {
    spool = "results/serve/spool";
    state_dir = "results/serve/state";
    jobs = 1;
    checkpoint_every = Sim.Time.sec 1;
    max_attempts = 3;
    backoff_base = 0.05;
    backoff_max = 2.;
    deadline = None;
    poll_interval = 0.2;
    once = false;
    log = ignore;
  }

type stats = {
  completed : int;
  quarantined : int;
  retries : int;
  drains : int;
  resumed : int;  (** completions that started from a snapshot *)
}

type job = {
  id : string;
  spec : Core.Spec.t;
  spec_json : Json.t;
  mutable attempt : int;  (* attempts started so far *)
  mutable not_before : float;  (* wall clock; 0. = runnable now *)
  mutable resume : string option;
}

type runner =
  job_id:string ->
  checkpoint:Core.Spec.checkpoint option ->
  resume_from:string option ->
  Core.Spec.t ->
  Core.Spec.outcome

let default_runner ~job_id:_ ~checkpoint ~resume_from spec =
  Core.Spec.run ?checkpoint ?resume_from spec

let journal_path state_dir = Filename.concat state_dir "journal.jsonl"
let snapshot_dir state_dir = Filename.concat state_dir "snapshots"
let outcome_dir state_dir = Filename.concat state_dir "outcomes"
let quarantine_dir state_dir = Filename.concat state_dir "quarantine"

let snapshot_path state_dir id =
  Filename.concat (snapshot_dir state_dir) (id ^ ".snap")

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let quarantine_artifact ~dir ~job ~error ~backtrace ~attempts ~spec_json =
  let path = Filename.concat dir (job ^ ".json") in
  Report.Csv.write_string ~path
    (Json.to_string
       (Json.Obj
          [
            ("job", Json.String job);
            ("error", Json.String error);
            ("backtrace", Json.String backtrace);
            ("attempts", Json.Number (float_of_int attempts));
            ("spec", spec_json);
          ]));
  path

let quarantine_spec ~path =
  Result.bind (Json.of_file path) (fun json ->
      match Json.member "spec" json with
      | None -> Error (path ^ ": no \"spec\" member")
      | Some spec_json -> Core.Spec.of_json spec_json)

let run ?(stop = Atomic.make false) ?(runner = default_runner)
    ?(specs = []) config =
  if config.jobs < 1 then invalid_arg "Supervisor.run: jobs must be >= 1";
  if config.jobs > Engine.Pool.max_jobs then
    invalid_arg
      (Printf.sprintf "Supervisor.run: jobs must be <= %d"
         Engine.Pool.max_jobs);
  if config.max_attempts < 1 then
    invalid_arg "Supervisor.run: max_attempts must be >= 1";
  if not (Sim.Time.is_positive config.checkpoint_every) then
    invalid_arg "Supervisor.run: checkpoint_every must be > 0";
  Artifacts.ensure_dir config.spool;
  Artifacts.ensure_dir (snapshot_dir config.state_dir);
  Artifacts.ensure_dir (outcome_dir config.state_dir);
  let journal = Journal.open_append ~path:(journal_path config.state_dir) in
  let completed = Hashtbl.create 64 in
  let quarantined = Hashtbl.create 16 in
  let queue : job Queue.t = Queue.create () in
  let known id =
    Hashtbl.mem completed id || Hashtbl.mem quarantined id
    || Queue.fold (fun acc j -> acc || j.id = id) false queue
  in
  let n_completed = ref 0
  and n_quarantined = ref 0
  and n_retries = ref 0
  and n_drains = ref 0
  and n_resumed = ref 0 in
  let do_quarantine ~job ~error ~backtrace ~attempts ~spec_json =
    let artifact =
      quarantine_artifact
        ~dir:(quarantine_dir config.state_dir)
        ~job ~error ~backtrace ~attempts ~spec_json
    in
    Journal.append journal (Journal.Quarantined { job; artifact; error });
    Hashtbl.replace quarantined job ();
    incr n_quarantined;
    config.log (Printf.sprintf "job %s quarantined: %s (artifact %s)" job
                  error artifact)
  in
  let enqueue ?(journal_submission = true) ~id ~spec_json ~attempt ~resume ()
      =
    match Core.Spec.of_json spec_json with
    | Error e ->
        do_quarantine ~job:id ~error:("spec rejected: " ^ e) ~backtrace:""
          ~attempts:0 ~spec_json
    | Ok spec ->
        if journal_submission then
          Journal.append journal
            (Journal.Submitted { job = id; spec = spec_json });
        Queue.push
          { id; spec; spec_json; attempt; not_before = 0.; resume }
          queue
  in
  (* --- recovery: replay the journal, trust snapshot files on disk --- *)
  let replayed = Journal.replay ~path:(journal_path config.state_dir) in
  let submitted_order = ref [] in
  let submitted = Hashtbl.create 64 in
  let attempts = Hashtbl.create 64 in
  List.iter
    (function
      | Journal.Submitted { job; spec } ->
          if not (Hashtbl.mem submitted job) then begin
            Hashtbl.replace submitted job spec;
            submitted_order := job :: !submitted_order
          end
      | Journal.Finished { job; _ } -> Hashtbl.replace completed job ()
      | Journal.Quarantined { job; _ } -> Hashtbl.replace quarantined job ()
      | Journal.Failed { job; attempt; _ } ->
          Hashtbl.replace attempts job attempt
      | Journal.Started _ | Journal.Checkpointed _ -> ())
    replayed;
  List.iter
    (fun id ->
      if not (Hashtbl.mem completed id || Hashtbl.mem quarantined id) then begin
        let snap = snapshot_path config.state_dir id in
        let resume = if Sys.file_exists snap then Some snap else None in
        let attempt =
          match Hashtbl.find_opt attempts id with Some a -> a | None -> 0
        in
        config.log
          (Printf.sprintf "recovered pending job %s%s" id
             (match resume with
             | Some s -> " (resume from " ^ s ^ ")"
             | None -> ""));
        enqueue ~journal_submission:false ~id
          ~spec_json:(Hashtbl.find submitted id) ~attempt ~resume ()
      end)
    (List.rev !submitted_order);
  (* --- direct submissions (the CLI's stdin reader) --- *)
  List.iter
    (fun spec ->
      let id = Artifacts.sanitize spec.Core.Spec.name in
      if known id then
        config.log (Printf.sprintf "job %s already known; skipped" id)
      else
        enqueue ~id ~spec_json:(Core.Spec.to_json spec) ~attempt:0
          ~resume:None ())
    specs;
  let scan_spool () =
    match Sys.readdir config.spool with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun entry ->
            if Filename.check_suffix entry ".json" then begin
              let id =
                Artifacts.sanitize (Filename.chop_suffix entry ".json")
              in
              if not (known id) then begin
                match Json.of_file (Filename.concat config.spool entry) with
                | Error e ->
                    do_quarantine ~job:id
                      ~error:("unreadable spool file: " ^ e) ~backtrace:""
                      ~attempts:0 ~spec_json:Json.Null
                | Ok spec_json ->
                    config.log (Printf.sprintf "job %s submitted" id);
                    enqueue ~id ~spec_json ~attempt:0 ~resume:None ()
              end
            end)
          entries
  in
  let run_batch pool batch =
    let f job =
      let t0 = Unix.gettimeofday () in
      let checkpoint =
        if Core.Spec.snapshot_supported job.spec then
          Some
            {
              Core.Spec.snapshot_path =
                snapshot_path config.state_dir job.id;
              interval = config.checkpoint_every;
              should_stop =
                (fun () ->
                  Atomic.get stop
                  ||
                  match config.deadline with
                  | Some d -> Unix.gettimeofday () -. t0 > d
                  | None -> false);
            }
        else None
      in
      runner ~job_id:job.id ~checkpoint ~resume_from:job.resume job.spec
    in
    Engine.Pool.map_collect pool ~label:(fun j -> j.id) ~f batch
  in
  let process job verdict =
    match verdict with
    | Ok (outcome : Core.Spec.outcome) ->
        let paths =
          Artifacts.write_outcome
            ~dir:(outcome_dir config.state_dir)
            job.spec outcome
        in
        Journal.append journal
          (Journal.Finished { job = job.id; outcome = List.hd paths });
        let snap = snapshot_path config.state_dir job.id in
        remove_if_exists snap;
        remove_if_exists (snap ^ ".prev");
        Hashtbl.replace completed job.id ();
        incr n_completed;
        if outcome.Core.Spec.resume_from <> None then incr n_resumed;
        config.log
          (Printf.sprintf "job %s finished%s -> %s" job.id
             (if outcome.Core.Spec.resume_from <> None then " (resumed)"
              else "")
             (List.hd paths))
    | Error { Engine.Pool.fexn = Core.Spec.Drained { at; snapshot }; _ } ->
        Journal.append journal
          (Journal.Checkpointed
             { job = job.id; snapshot; at_ns = Sim.Time.to_ns_int at });
        job.resume <- Some snapshot;
        (* a drained slice succeeded — it is not a consumed attempt *)
        job.attempt <- job.attempt - 1;
        incr n_drains;
        config.log
          (Printf.sprintf "job %s drained at t=%.3fs -> %s" job.id
             (Sim.Time.to_sec at) snapshot);
        Queue.push job queue
    | Error { Engine.Pool.fexn = Sim.Snapshot.Corrupt msg; _ } ->
        (* the resume image is unusable: the job is deterministic, so
           restarting from scratch is correct, just slower *)
        config.log
          (Printf.sprintf "job %s: corrupt snapshot (%s); restarting clean"
             job.id msg);
        job.resume <- None;
        (* not the spec's fault; with the image gone it cannot recur *)
        job.attempt <- job.attempt - 1;
        let snap = snapshot_path config.state_dir job.id in
        remove_if_exists snap;
        remove_if_exists (snap ^ ".prev");
        Queue.push job queue
    | Error { Engine.Pool.fexn = Invalid_argument msg; fbacktrace; _ } ->
        do_quarantine ~job:job.id ~error:("invalid: " ^ msg)
          ~backtrace:fbacktrace ~attempts:job.attempt
          ~spec_json:job.spec_json
    | Error { Engine.Pool.fexn; fbacktrace; _ } ->
        let error = Printexc.to_string fexn in
        if job.attempt >= config.max_attempts then
          do_quarantine ~job:job.id ~error ~backtrace:fbacktrace
            ~attempts:job.attempt ~spec_json:job.spec_json
        else begin
          let backoff =
            Float.min config.backoff_max
              (config.backoff_base
              *. Float.pow 2. (float_of_int (job.attempt - 1)))
          in
          Journal.append journal
            (Journal.Failed
               { job = job.id; attempt = job.attempt; error;
                 retry_in_s = backoff });
          job.not_before <- Unix.gettimeofday () +. backoff;
          incr n_retries;
          config.log
            (Printf.sprintf
               "job %s attempt %d failed (%s); retry in %.3fs" job.id
               job.attempt error backoff);
          Queue.push job queue
        end
  in
  Fun.protect ~finally:(fun () -> Journal.close journal) (fun () ->
      Engine.Pool.with_pool ~jobs:config.jobs @@ fun pool ->
      let scanned_once = ref false in
      let rec loop () =
        if Atomic.get stop then ()
        else begin
          if (not config.once) || not !scanned_once then begin
            scan_spool ();
            scanned_once := true
          end;
          let now = Unix.gettimeofday () in
          let due, waiting =
            Queue.fold
              (fun (due, waiting) j ->
                if j.not_before <= now then (j :: due, waiting)
                else (due, j :: waiting))
              ([], []) queue
          in
          let due = List.rev due and waiting = List.rev waiting in
          Queue.clear queue;
          List.iter (fun j -> Queue.push j queue) waiting;
          match due with
          | [] ->
              if waiting <> [] then begin
                let next =
                  List.fold_left
                    (fun acc j -> Float.min acc j.not_before)
                    infinity waiting
                in
                Unix.sleepf
                  (Float.min config.poll_interval
                     (Float.max 0.001 (next -. now)));
                loop ()
              end
              else if config.once then ()
              else begin
                Unix.sleepf config.poll_interval;
                loop ()
              end
          | due ->
              List.iter
                (fun j ->
                  j.attempt <- j.attempt + 1;
                  Journal.append journal
                    (Journal.Started { job = j.id; attempt = j.attempt }))
                due;
              let verdicts = run_batch pool due in
              List.iter2 process due verdicts;
              loop ()
        end
      in
      loop ();
      {
        completed = !n_completed;
        quarantined = !n_quarantined;
        retries = !n_retries;
        drains = !n_drains;
        resumed = !n_resumed;
      })
