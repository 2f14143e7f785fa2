(* rss_sim — command-line front end to the Restricted Slow-Start
   simulator.

     rss_sim run --slow-start restricted --duration 25
     rss_sim experiments fig1 arena
     rss_sim list *)

open Cmdliner

(* --- shared options ---------------------------------------------------- *)

let seed =
  let doc = "Deterministic random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected N >= 1, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* --jobs and --domains: 1 to the runtime's domain limit, refused as a
   usage error before any domain starts. *)
let domain_count =
  let parse s =
    match Arg.conv_parser positive_int s with
    | Ok n when n > Engine.Pool.max_jobs ->
        Error
          (`Msg
             (Printf.sprintf "expected N <= %d (the domain limit), got %d"
                Engine.Pool.max_jobs n))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* --- one spec: load, run, report --------------------------------------- *)

let load_spec path =
  match
    Result.bind (Report.Json.of_file path) (fun json ->
        Result.map_error (fun e -> path ^ ": " ^ e) (Core.Spec.of_json json))
  with
  | Ok spec -> spec
  | Error e ->
      prerr_endline e;
      exit 2

let print_result (r : Core.Spec.flow_result) =
  Printf.printf
    "%-11s  goodput %7.2f Mbit/s  util %5.1f%%  stalls %-3d cong.signals \
     %-3d retx %-4d timeouts %-2d cwnd %7.1f seg  mean IFQ %6.1f%s\n"
    r.Core.Spec.label r.Core.Spec.goodput_mbps
    (100. *. r.Core.Spec.utilization)
    r.Core.Spec.send_stalls r.Core.Spec.congestion_signals
    r.Core.Spec.retransmits r.Core.Spec.timeouts
    r.Core.Spec.final_cwnd_segments r.Core.Spec.mean_ifq
    (match r.Core.Spec.completion with
    | Some t -> Printf.sprintf "  completed at %.3f s" (Sim.Time.to_sec t)
    | None -> "")

let print_path_stats (p : Core.Spec.path_stats) =
  Printf.printf
    "path         aggregate %6.2f Mbit/s  jain %6.4f  queue mean %6.1f \
     peak %4.0f  router drops %d\n"
    p.Core.Spec.aggregate_goodput_mbps p.Core.Spec.jain_index
    p.Core.Spec.queue_mean p.Core.Spec.queue_peak p.Core.Spec.router_drops

(* Every spec the CLI runs goes through here: [domains] overrides the
   spec's own; the report is one line per flow, the path line, the
   ring's line when the run kept a trace and, with [chart], every
   flow's window; [out] receives every artifact the outcome holds. A
   malformed spec or refused input is a usage error (exit 2); anything
   else the run raises fails it (exit 1). *)
let run_spec ?domains ?checkpoint ?resume_from ?out ?(chart = false) spec =
  let spec =
    match domains with
    | None -> spec
    | Some domains -> { spec with Core.Spec.domains }
  in
  let outcome =
    try Core.Spec.run ?checkpoint ?resume_from spec with
    | Invalid_argument e ->
        prerr_endline e;
        exit 2
    | e ->
        Printf.eprintf "spec %S failed: %s\n" spec.Core.Spec.name
          (Printexc.to_string e);
        exit 1
  in
  List.iter print_result outcome.Core.Spec.results;
  print_path_stats outcome.Core.Spec.path;
  Option.iter
    (fun tr ->
      Printf.printf
        "trace        %d record(s) retained, %d dropped (ring capacity %d)\n"
        (Trace.length tr) (Trace.dropped tr) (Trace.capacity tr))
    outcome.Core.Spec.trace;
  if chart then
    print_string
      (Report.Ascii_chart.line_chart ~title:"congestion window (segments)"
         ~x_label:"time (s)" ~y_label:"cwnd"
         (List.map
            (fun (r : Core.Spec.flow_result) ->
              Report.Ascii_chart.of_series ~label:r.Core.Spec.label
                r.Core.Spec.cwnd_series)
            outcome.Core.Spec.results));
  Option.iter
    (fun dir ->
      List.iter
        (Printf.printf "wrote %s\n")
        (Serve.Artifacts.write_outcome ~dir spec outcome))
    out

(* --- run ---------------------------------------------------------------- *)

(* The path and flow flags describe one bulk flow on the duplex path:
   the spec [run] builds when no --spec is given. *)
let flag_spec =
  let slow_start =
    let doc =
      "Congestion-control policy: a slow-start rule alone (with Reno), \
       RULE+AVOIDANCE (e.g. hystart+cubic) or a named bundle; see $(b,rss_sim \
       list)."
    in
    Arg.(value & opt string "restricted" & info [ "slow-start"; "s" ] ~doc)
  in
  let local_congestion =
    let doc = "Reaction to send-stalls: halve | cwr | ignore." in
    Arg.(value & opt string "halve" & info [ "local-congestion" ] ~doc)
  in
  let bytes =
    let doc = "Transfer size in bytes (default: saturating)." in
    Arg.(value & opt (some int) None & info [ "bytes" ] ~docv:"N" ~doc)
  in
  let pacing =
    let doc = "Pace data segments (sch_fq-style)." in
    Arg.(value & flag & info [ "pacing" ] ~doc)
  in
  let rate_mbps =
    let doc = "Path line rate in Mbit/s." in
    Arg.(value & opt float 100. & info [ "rate" ] ~docv:"MBPS" ~doc)
  in
  let rtt_ms =
    let doc = "Path round-trip time in milliseconds." in
    Arg.(value & opt int 60 & info [ "rtt-ms" ] ~docv:"MS" ~doc)
  in
  let ifq =
    let doc = "Interface queue capacity in packets (Linux txqueuelen)." in
    Arg.(value & opt int 100 & info [ "ifq" ] ~docv:"PKTS" ~doc)
  in
  let duration_s =
    let doc = "Simulated duration in seconds." in
    Arg.(value & opt float 25. & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let loss =
    let doc = "Independent forward-path loss probability (0..1)." in
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc)
  in
  let make slow_start local_congestion bytes pacing rate_mbps rtt_ms ifq
      duration_s seed loss =
    Result.map
      (fun local_congestion ->
        {
          Core.Spec.default with
          Core.Spec.name = slow_start;
          seed;
          duration = Sim.Time.of_sec duration_s;
          topology =
            Core.Spec.Duplex
              {
                Core.Spec.default_duplex with
                Core.Spec.rate = Sim.Units.mbps rate_mbps;
                one_way_delay = Sim.Time.ms (rtt_ms / 2);
                ifq_capacity = ifq;
                loss_rate = loss;
              };
          flows =
            [
              {
                Core.Spec.default_flow with
                Core.Spec.slow_start;
                local_congestion;
                pacing;
                workload = Core.Spec.Bulk { bytes };
              };
            ];
        })
      (Tcp.Local_congestion.of_string local_congestion)
  in
  Term.(
    with_used_args
      (const make $ slow_start $ local_congestion $ bytes $ pacing
     $ rate_mbps $ rtt_ms $ ifq $ duration_s $ seed $ loss))

let run_cmd =
  let spec_file =
    let doc =
      "Run the scenario described by a JSON spec file (see $(b,rss_sim \
       spec --print-default) for the schema) instead of one built from \
       the path and flow options, which it then refuses."
    in
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let domains =
    let doc =
      "Override the spec's \"domains\" — worker domains $(i,inside) the \
       scenario, partitioning the topology across its cut links \
       (conservative-lookahead parallel DES). Needs a cut-capable \
       topology (duplex or dumbbell_of_dumbbells). Artifacts are \
       byte-identical for any value."
    in
    Arg.(
      value
      & opt (some domain_count) None
      & info [ "domains" ] ~docv:"N" ~doc)
  in
  let out_dir =
    let doc =
      "Write the outcome as JSON under this directory, with per-flow \
       series CSVs when the spec records series and the event ring \
       (CSV and Chrome trace_event JSON) and metrics CSV when it records \
       a trace."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let chart =
    let doc = "Draw an ASCII chart of every flow's window trajectory." in
    Arg.(value & flag & info [ "chart" ] ~doc)
  in
  let checkpoint =
    let doc =
      "Snapshot the run to FILE every --checkpoint-every simulated \
       seconds (atomic write; the previous good image is kept as \
       FILE.prev). Requires a snapshot-supported spec: one many_flows \
       flow starting at t=0, no faults, no trace."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every =
    let doc = "Simulated seconds between checkpoints." in
    Arg.(
      value & opt float 1.
      & info [ "checkpoint-every" ] ~docv:"SECONDS" ~doc)
  in
  let resume =
    let doc =
      "Resume from a snapshot FILE written by --checkpoint for the \
       $(i,same) spec. The completed run's artifacts are byte-identical \
       to an unbroken run."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let action spec_file (flag_spec, flags) domains out chart checkpoint
      checkpoint_every resume =
    let spec =
      match (spec_file, flag_spec) with
      | Some path, _ when flags = [] -> load_spec path
      | Some _, _ ->
          Printf.eprintf
            "--spec refuses the path and flow options (set them in the \
             file): %s\n"
            (String.concat " " flags);
          exit 2
      | None, Ok spec -> spec
      | None, Error e ->
          prerr_endline e;
          exit 2
    in
    let checkpoint =
      Option.map
        (fun snapshot_path ->
          {
            Core.Spec.snapshot_path;
            interval = Sim.Time.of_sec checkpoint_every;
            should_stop = (fun () -> false);
          })
        checkpoint
    in
    run_spec ?domains ?checkpoint ?resume_from:resume ?out ~chart spec
  in
  let term =
    Term.(
      const action $ spec_file $ flag_spec $ domains $ out_dir $ chart
      $ checkpoint $ checkpoint_every $ resume)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one scenario — a JSON spec file, or one bulk transfer on the \
          path the options describe — and report web100 counters.")
    term

(* --- chaos --------------------------------------------------------------- *)

let chaos_cmd =
  let cases =
    let doc = "Number of random fault schedules to generate and run." in
    Arg.(value & opt positive_int 20 & info [ "cases"; "n" ] ~docv:"N" ~doc)
  in
  let jobs =
    let doc =
      "Worker domains for the sweep (1 disables parallelism). Outcomes \
       are identical for any value."
    in
    Arg.(value & opt domain_count 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let out_dir =
    let doc = "Directory for failure artifacts." in
    Arg.(
      value
      & opt string "results/chaos_failures"
      & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let replay =
    let doc =
      "Re-run the case stored in a failure artifact and check that the \
       fresh trace is byte-identical."
    in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let action cases jobs out_dir replay seed =
    match replay with
    | Some path -> (
        match Core.Chaos.replay path with
        | Error e ->
            Printf.eprintf "replay failed: %s\n" e;
            exit 1
        | Ok (outcome, identical) ->
            Printf.printf "replayed %s: %s, trace %s\n"
              (Core.Chaos.case_name outcome.Core.Chaos.case)
              (if Core.Chaos.passed outcome then "passed"
               else
                 Printf.sprintf "%d violation(s)"
                   (List.length outcome.Core.Chaos.violations))
              (if identical then "byte-identical to artifact"
               else "DIVERGED from artifact");
            List.iter
              (fun v -> Printf.printf "  violation: %s\n" v)
              outcome.Core.Chaos.violations;
            if not identical then exit 1;
            if not (Core.Chaos.passed outcome) then exit 3)
    | None ->
        let case_list = Core.Chaos.random_cases ~root:seed cases in
        let outcomes =
          Engine.Pool.with_pool ~jobs (fun pool ->
              Core.Chaos.run_sweep ~pool case_list)
        in
        List.iter
          (fun (o : Core.Chaos.outcome) ->
            Printf.printf "%-28s %-6s acked %8d  timeouts %-3d retx %-4d\n"
              (Core.Chaos.case_name o.Core.Chaos.case)
              (if Core.Chaos.passed o then "ok" else "FAIL")
              o.Core.Chaos.bytes_acked o.Core.Chaos.timeouts
              o.Core.Chaos.retransmits;
            List.iter
              (fun v -> Printf.printf "    violation: %s\n" v)
              o.Core.Chaos.violations)
          outcomes;
        let failures =
          List.filter (fun o -> not (Core.Chaos.passed o)) outcomes
        in
        if failures <> [] then begin
          let paths = Core.Chaos.write_failures ~dir:out_dir failures in
          List.iter (Printf.printf "wrote %s\n") paths;
          Printf.printf "%d of %d cases failed; replay with: rss_sim chaos \
                         --replay <file>\n"
            (List.length failures) (List.length outcomes);
          exit 3
        end
        else Printf.printf "all %d cases passed\n" (List.length outcomes)
  in
  let term = Term.(const action $ cases $ jobs $ out_dir $ replay $ seed) in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep random fault schedules (burst loss, reordering, \
          duplication, outages) through the simulator and check \
          invariants; failures are written as replayable JSON artifacts.")
    term

(* --- serve --------------------------------------------------------------- *)

let serve_cmd =
  let spool =
    let doc = "Directory scanned for Spec-JSON job files (NAME.json)." in
    Arg.(
      value
      & opt string "results/serve/spool"
      & info [ "spool" ] ~docv:"DIR" ~doc)
  in
  let state =
    let doc =
      "State directory: the job journal, per-job snapshots, outcome \
       artifacts and quarantined failures live here. Restarting with \
       the same --state recovers the queue."
    in
    Arg.(
      value
      & opt string "results/serve/state"
      & info [ "state" ] ~docv:"DIR" ~doc)
  in
  let jobs =
    let doc = "Worker domains (1 disables parallelism)." in
    Arg.(value & opt domain_count 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let checkpoint_every =
    let doc = "Simulated seconds between job checkpoints." in
    Arg.(
      value & opt float 1.
      & info [ "checkpoint-every" ] ~docv:"SECONDS" ~doc)
  in
  let max_attempts =
    let doc =
      "Attempts before a repeatedly failing job is quarantined."
    in
    Arg.(value & opt positive_int 3 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let backoff_base =
    let doc = "Retry backoff base in seconds (attempt n waits base*2^(n-1))." in
    Arg.(value & opt float 0.05 & info [ "backoff-base" ] ~docv:"SECONDS" ~doc)
  in
  let backoff_max =
    let doc = "Retry backoff ceiling in seconds." in
    Arg.(value & opt float 2. & info [ "backoff-max" ] ~docv:"SECONDS" ~doc)
  in
  let deadline =
    let doc =
      "Watchdog: wall seconds a job may run before it is drained to its \
       snapshot and requeued (snapshot-supported jobs only)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let poll =
    let doc = "Spool scan period in seconds." in
    Arg.(value & opt float 0.2 & info [ "poll" ] ~docv:"SECONDS" ~doc)
  in
  let once =
    let doc =
      "Drain the current queue (spool + recovered jobs + stdin) and \
       exit instead of watching the spool forever."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let from_stdin =
    let doc =
      "Read one Spec JSON (or a JSON array of specs) from stdin and \
       submit before the first spool scan."
    in
    Arg.(value & flag & info [ "stdin" ] ~doc)
  in
  let quiet =
    let doc = "Suppress per-job progress lines." in
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc)
  in
  let replay_quarantine =
    let doc =
      "Re-run the spec embedded in a quarantine artifact once, in \
       process, and exit (non-zero if it still fails)."
    in
    Arg.(
      value
      & opt (some file) None
      & info [ "replay-quarantine" ] ~docv:"FILE" ~doc)
  in
  let action spool state jobs checkpoint_every max_attempts backoff_base
      backoff_max deadline poll once from_stdin quiet replay_quarantine =
    match replay_quarantine with
    | Some path -> (
        match Serve.Supervisor.quarantine_spec ~path with
        | Error e ->
            Printf.eprintf "replay failed: %s\n" e;
            exit 2
        | Ok spec ->
            run_spec spec;
            print_endline "quarantined job replayed clean")
    | None ->
        let specs =
          if not from_stdin then []
          else
            let contents = In_channel.input_all Stdlib.stdin in
            if String.trim contents = "" then []
            else
              match Report.Json.of_string contents with
              | Error e ->
                  Printf.eprintf "stdin: %s\n" e;
                  exit 2
              | Ok json -> (
                  let parse j =
                    match Core.Spec.of_json j with
                    | Ok spec -> spec
                    | Error e ->
                        Printf.eprintf "stdin spec: %s\n" e;
                        exit 2
                  in
                  match json with
                  | Report.Json.List items -> List.map parse items
                  | j -> [ parse j ])
        in
        let stop = Atomic.make false in
        let drain _ = Atomic.set stop true in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
        Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
        let log =
          if quiet then ignore
          else fun line ->
            print_endline line;
            flush Stdlib.stdout
        in
        let config =
          {
            Serve.Supervisor.spool;
            state_dir = state;
            jobs;
            checkpoint_every = Sim.Time.of_sec checkpoint_every;
            max_attempts;
            backoff_base;
            backoff_max;
            deadline;
            poll_interval = poll;
            once;
            log;
          }
        in
        let stats =
          try Serve.Supervisor.run ~stop ~specs config
          with Invalid_argument e ->
            Printf.eprintf "serve: %s\n" e;
            exit 2
        in
        Printf.printf
          "serve: %d completed (%d resumed), %d quarantined, %d \
           retries, %d drains\n"
          stats.Serve.Supervisor.completed stats.Serve.Supervisor.resumed
          stats.Serve.Supervisor.quarantined stats.Serve.Supervisor.retries
          stats.Serve.Supervisor.drains;
        if stats.Serve.Supervisor.quarantined > 0 then exit 3
  in
  let term =
    Term.(
      const action $ spool $ state $ jobs $ checkpoint_every
      $ max_attempts $ backoff_base $ backoff_max $ deadline $ poll
      $ once $ from_stdin $ quiet $ replay_quarantine)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Supervised job service: run Spec-JSON jobs from a spool \
          directory (or stdin) with a write-ahead journal, periodic \
          snapshots, crash recovery, retry with exponential backoff, \
          and quarantine for poisoned jobs. Kill it at any moment — \
          SIGKILL included — and a restart with the same --state \
          resumes where it stopped, byte-identically.")
    term

(* --- experiments ---------------------------------------------------------- *)

let experiments_cmd =
  let ids =
    let doc =
      "Experiments to run (default: the whole catalog, see $(b,rss_sim \
       list))."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let jobs =
    let doc =
      "Worker domains for each experiment's independent cells (default: \
       all cores; 1 disables parallelism). Output is byte-identical for \
       any value."
    in
    Arg.(
      value
      & opt domain_count (Engine.Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let action ids jobs =
    let known =
      List.map (fun e -> e.Core.Experiments.id) Core.Experiments.catalog
    in
    (match List.filter (fun id -> not (List.mem id known)) ids with
    | [] -> ()
    | unknown ->
        Printf.eprintf "unknown experiment %s (known: %s)\n"
          (String.concat ", " unknown) (String.concat ", " known);
        exit 2);
    let t0 = Unix.gettimeofday () in
    let run pool =
      List.iter
        (fun { Core.Experiments.id; title } ->
          Printf.printf "\n== %s: %s\n\n" id title;
          let t = Core.Experiments.run ~pool id in
          print_string (Core.Experiments.to_text t);
          List.iter
            (fun (file, contents) ->
              let path = Filename.concat "results" file in
              Report.Csv.write_string ~path contents;
              Printf.printf "wrote %s\n" path)
            (Core.Experiments.to_csv ~id t))
        (if ids = [] then Core.Experiments.catalog
         else
           List.map
             (fun id ->
               List.find (fun e -> e.Core.Experiments.id = id)
                 Core.Experiments.catalog)
             ids)
    in
    Engine.Pool.with_pool ~jobs run;
    Printf.printf "total wall-clock %.1f s with --jobs %d\n"
      (Unix.gettimeofday () -. t0)
      jobs
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Reproduce the paper's figure and table and the extended \
          experiments at their paper horizons: print each one's tables, \
          charts and note, and write its tables and series as CSV under \
          results/. An unknown ID exits 2 before anything runs.")
    Term.(const action $ ids $ jobs)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let action () =
    print_endline "experiments (rss_sim experiments [ID...]):";
    List.iter
      (fun { Core.Experiments.id; title } ->
        Printf.printf "  %-9s %s\n" id title)
      Core.Experiments.catalog;
    print_endline "";
    let print_docs title docs =
      print_endline title;
      List.iter (fun (name, doc) -> Printf.printf "  %-19s %s\n" name doc) docs
    in
    print_endline
      "congestion-control policies (run -s NAME / spec flow \"slow_start\" \
       or \"policy\"): a slow-start rule alone (with reno), \
       RULE+AVOIDANCE (e.g. limited+cubic) or a named bundle";
    print_docs "slow-start rules:" Tcp.Policy.slow_starts;
    print_docs "avoidance rules:" Tcp.Policy.avoidances;
    print_docs "named bundles (the policies of experiments arena):"
      Tcp.Policy.bundles;
    print_endline "";
    print_docs "arena scenarios (the scenarios of experiments arena):"
      (List.map
         (fun (s : Core.Arena.scenario) -> (s.Core.Arena.sname, s.Core.Arena.sdoc))
         Core.Arena.scenarios);
    print_endline "";
    print_endline "workload kinds (spec flow \"workload\".\"kind\"):";
    List.iter (Printf.printf "  %s\n") Core.Spec.workload_kinds
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the experiment catalog, congestion-control policies, arena \
          scenarios and workload kinds.")
    Term.(const action $ const ())

(* --- spec ---------------------------------------------------------------- *)

let spec_cmd =
  let print_default =
    let doc =
      "Print a commented spec-file template (\"_doc\" keys explain each \
       field; keys that start with _ are free, any other unknown key is \
       an error)."
    in
    Arg.(value & flag & info [ "print-default" ] ~doc)
  in
  let validate =
    let doc =
      "Parse FILE and run full validation — topology and flow ranges \
       (a flow's max_rto and delayed_ack included), RED parameters, \
       fault profiles, workload constraints, the \"domains\" \
       partitioning gates — without running anything. Exit status 0 \
       and a summary line when the spec is runnable; a readable error \
       and exit status 2 otherwise."
    in
    Arg.(
      value & opt (some string) None & info [ "validate" ] ~docv:"FILE" ~doc)
  in
  let action print_default validate =
    match validate with
    | Some path -> (
        let spec = load_spec path in
        match Core.Spec.validate spec with
        | exception Invalid_argument e ->
            Printf.eprintf "%s: %s\n" path e;
            exit 2
        | () ->
            Printf.printf "%s: ok — %s: %d flow(s), %d domain(s), %.1f s\n"
              path spec.Core.Spec.name
              (List.length spec.Core.Spec.flows)
              spec.Core.Spec.domains
              (Sim.Time.to_sec spec.Core.Spec.duration))
    | None ->
        if print_default then print_string (Core.Spec.template ())
        else
          print_string
            (Report.Json.to_string (Core.Spec.to_json Core.Spec.default))
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:
         "Print the default scenario spec as JSON (with --print-default, a \
          commented template), or check one with --validate, for use with \
          $(b,rss_sim run --spec).")
    Term.(const action $ print_default $ validate)

let () =
  let doc = "Restricted Slow-Start for TCP — simulator front end" in
  let info = Cmd.info "rss_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; chaos_cmd; serve_cmd; experiments_cmd; list_cmd;
            spec_cmd ]))
