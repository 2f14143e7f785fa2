(* rss_sim — command-line front end to the Restricted Slow-Start
   simulator.

     rss_sim run --slow-start restricted --duration 25
     rss_sim compare --rtt-ms 120
     rss_sim calibrate *)

open Cmdliner

(* --- shared options ---------------------------------------------------- *)

let rate_mbps =
  let doc = "Path line rate in Mbit/s." in
  Arg.(value & opt float 100. & info [ "rate" ] ~docv:"MBPS" ~doc)

let rtt_ms =
  let doc = "Path round-trip time in milliseconds." in
  Arg.(value & opt int 60 & info [ "rtt-ms" ] ~docv:"MS" ~doc)

let ifq =
  let doc = "Interface queue capacity in packets (Linux txqueuelen)." in
  Arg.(value & opt int 100 & info [ "ifq" ] ~docv:"PKTS" ~doc)

let duration_s =
  let doc = "Simulated duration in seconds." in
  Arg.(value & opt float 25. & info [ "duration" ] ~docv:"SECONDS" ~doc)

let seed =
  let doc = "Deterministic random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let loss =
  let doc = "Independent forward-path loss probability (0..1)." in
  Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc)

(* One [flow] on the duplex path the shared options describe. *)
let spec_of ~rate_mbps ~rtt_ms ~ifq ~duration_s ~seed ~loss flow =
  {
    Core.Spec.default with
    Core.Spec.name = flow.Core.Spec.slow_start;
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
    flows = [ flow ];
  }

let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected N >= 1, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let print_result (r : Core.Spec.flow_result) =
  Printf.printf
    "%-11s  goodput %7.2f Mbit/s  util %5.1f%%  stalls %-3d cong.signals \
     %-3d retx %-4d timeouts %-2d cwnd %7.1f seg  mean IFQ %6.1f\n"
    r.Core.Spec.label r.Core.Spec.goodput_mbps
    (100. *. r.Core.Spec.utilization)
    r.Core.Spec.send_stalls r.Core.Spec.congestion_signals
    r.Core.Spec.retransmits r.Core.Spec.timeouts
    r.Core.Spec.final_cwnd_segments r.Core.Spec.mean_ifq

(* --- run --spec --------------------------------------------------------- *)

(* Per-cell failure table: a poisoned cell must cost its row, not the
   batch — print every failure, then exit non-zero. *)
let print_failure_table failures =
  Printf.eprintf "%d cell(s) failed:\n" (List.length failures);
  List.iter
    (fun (f : Engine.Pool.failure) ->
      Printf.eprintf "  %-44s %s\n" f.Engine.Pool.flabel
        (Printexc.to_string f.Engine.Pool.fexn))
    failures

let print_path_stats (p : Core.Spec.path_stats) =
  Printf.printf
    "path         aggregate %6.2f Mbit/s  jain %6.4f  queue mean %6.1f \
     peak %4.0f  router drops %d\n"
    p.Core.Spec.aggregate_goodput_mbps p.Core.Spec.jain_index
    p.Core.Spec.queue_mean p.Core.Spec.queue_peak p.Core.Spec.router_drops

let load_spec path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error e ->
      prerr_endline e;
      exit 2
  in
  match Report.Json.of_string contents with
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2
  | Ok json -> (
      match Core.Spec.of_json json with
      | Error e ->
          Printf.eprintf "%s: %s\n" path e;
          exit 2
      | Ok spec -> spec)

let run_spec ~jobs spec =
  let verdicts =
    Engine.Pool.with_pool ~jobs (fun pool ->
        Core.Spec.run_batch_collect ~pool [ spec ])
  in
  match verdicts with
  | [ Ok outcome ] -> outcome
  | [ Error { Engine.Pool.fexn = Invalid_argument e; _ } ] ->
      (* a malformed spec is a usage error, not a poisoned cell *)
      prerr_endline e;
      exit 2
  | [ Error failure ] ->
      print_failure_table [ failure ];
      exit 1
  | _ -> assert false

let run_spec_file ~path ~jobs ~domains ~out_dir ~checkpoint ~checkpoint_every
    ~resume =
  let spec = load_spec path in
  let spec =
    match domains with
    | None -> spec
    | Some d -> { spec with Core.Spec.domains = d }
  in
  let outcome =
    match (checkpoint, resume) with
    | None, None -> run_spec ~jobs spec
    | _ -> (
        let ck =
          Option.map
            (fun snapshot_path ->
              {
                Core.Spec.snapshot_path;
                interval = Sim.Time.of_sec checkpoint_every;
                should_stop = (fun () -> false);
              })
            checkpoint
        in
        try Core.Spec.run ?checkpoint:ck ?resume_from:resume spec
        with
        | Invalid_argument e ->
            prerr_endline e;
            exit 2
        | e ->
            print_failure_table
              [
                {
                  Engine.Pool.flabel = spec.Core.Spec.name;
                  fexn = e;
                  fbacktrace = Printexc.get_backtrace ();
                };
              ];
            exit 1)
  in
  List.iter print_result outcome.Core.Spec.results;
  print_path_stats outcome.Core.Spec.path;
  match out_dir with
  | None -> ()
  | Some dir ->
      let paths = Serve.Artifacts.write_outcome ~dir spec outcome in
      List.iter (Printf.printf "wrote %s\n") paths

(* --- run ---------------------------------------------------------------- *)

let run_cmd =
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
  let csv_prefix =
    let doc = "Write cwnd/stall/IFQ time series as PREFIX_<name>.csv." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PREFIX" ~doc)
  in
  let pacing =
    let doc = "Pace data segments (sch_fq-style)." in
    Arg.(value & flag & info [ "pacing" ] ~doc)
  in
  let chart =
    let doc = "Draw an ASCII chart of the window trajectory." in
    Arg.(value & flag & info [ "chart" ] ~doc)
  in
  let spec_file =
    let doc =
      "Run the scenario described by a JSON spec file instead of the \
       single-flow path options (see $(b,rss_sim spec --print-default) \
       for the schema). Prints one line per flow plus path statistics."
    in
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let jobs =
    let doc =
      "Worker domains when running a --spec scenario (1 disables \
       parallelism). Output is byte-identical for any value."
    in
    Arg.(value & opt positive_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let domains =
    let doc =
      "With --spec: override the spec's \"domains\" — worker domains \
       $(i,inside) the scenario, partitioning the topology across its \
       cut links (conservative-lookahead parallel DES). Needs a \
       cut-capable topology (duplex or dumbbell_of_dumbbells). \
       Artifacts are byte-identical for any value; composes with \
       --jobs, which parallelises $(i,across) scenarios."
    in
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "domains" ] ~docv:"N" ~doc)
  in
  let out_dir =
    let doc =
      "With --spec: write the outcome as JSON (and per-flow series CSVs \
       when the spec records series) under this directory."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let checkpoint =
    let doc =
      "With --spec: snapshot the run to FILE every --checkpoint-every \
       simulated seconds (atomic write; the previous good image is kept \
       as FILE.prev). Requires a snapshot-supported spec: one \
       many_flows flow starting at t=0, no faults, no trace."
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
      "With --spec: resume from a snapshot FILE written by --checkpoint \
       for the $(i,same) spec. The completed run's artifacts are \
       byte-identical to an unbroken run."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let action slow_start local_congestion bytes csv_prefix pacing chart
      spec_file jobs domains out_dir checkpoint checkpoint_every resume
      rate_mbps rtt_ms ifq duration_s seed loss =
    match spec_file with
    | Some path ->
        run_spec_file ~path ~jobs ~domains ~out_dir ~checkpoint
          ~checkpoint_every ~resume
    | None ->
    if checkpoint <> None || resume <> None then begin
      prerr_endline "--checkpoint/--resume require --spec";
      exit 2
    end;
    if domains <> None then begin
      prerr_endline "--domains requires --spec";
      exit 2
    end;
    match Tcp.Local_congestion.of_string local_congestion with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok policy -> (
        let spec =
          spec_of ~rate_mbps ~rtt_ms ~ifq ~duration_s ~seed ~loss
            {
              Core.Spec.default_flow with
              Core.Spec.slow_start;
              local_congestion = policy;
              pacing;
              workload = Core.Spec.Bulk { bytes };
            }
        in
        try
          let r = List.hd (Core.Spec.run spec).Core.Spec.results in
          print_result r;
          (match r.Core.Spec.completion with
          | Some t ->
              Printf.printf "transfer completed at t=%.3f s\n"
                (Sim.Time.to_sec t)
          | None -> ());
          if chart then
            print_string
              (Report.Ascii_chart.line_chart
                 ~title:"congestion window (segments)" ~x_label:"time (s)"
                 ~y_label:"cwnd"
                 [
                   Report.Ascii_chart.of_series ~label:r.Core.Spec.label
                     r.Core.Spec.cwnd_series;
                 ]);
          match csv_prefix with
          | None -> ()
          | Some prefix ->
              List.iter
                (fun (tag, series) ->
                  let path = Printf.sprintf "%s_%s.csv" prefix tag in
                  Report.Csv.write_series ~path ~name:tag series;
                  Printf.printf "wrote %s\n" path)
                [
                  ("cwnd", r.Core.Spec.cwnd_series);
                  ("stalls", r.Core.Spec.stalls_series);
                  ("ifq", r.Core.Spec.ifq_series);
                  ("throughput", r.Core.Spec.throughput_series);
                ]
        with Invalid_argument e ->
          prerr_endline e;
          exit 2)
  in
  let term =
    Term.(
      const action $ slow_start $ local_congestion $ bytes $ csv_prefix
      $ pacing $ chart $ spec_file $ jobs $ domains $ out_dir
      $ checkpoint $ checkpoint_every $ resume $ rate_mbps $ rtt_ms $ ifq
      $ duration_s $ seed $ loss)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one bulk transfer (or, with --spec, a JSON-described \
          scenario) and report web100 counters.")
    term

(* --- compare ------------------------------------------------------------ *)

let compare_cmd =
  let jobs =
    let doc =
      "Worker domains for the policy runs (default: all cores; 1 \
       disables parallelism). Output is identical for any value."
    in
    Arg.(
      value
      & opt positive_int (Engine.Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let matrix =
    let doc =
      "Full arena: every named congestion-control bundle crossed \
       with every arena scenario (paper-path, lossy-wan, \
       shared-bottleneck and the chaos-bursty fault profile), scored \
       into a league table. --rate/--rtt-ms/--ifq/--loss are ignored \
       (scenarios define their own paths); --duration and --seed apply \
       to every cell."
    in
    Arg.(value & flag & info [ "matrix" ] ~doc)
  in
  let policies =
    let doc =
      "With --matrix: run these comma-separated policies instead of the \
       named bundles; any policy name works (see $(b,rss_sim list))."
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "policies" ] ~docv:"NAMES" ~doc)
  in
  let scenarios =
    let doc =
      "With --matrix: restrict to a comma-separated subset of the arena \
       scenarios (see $(b,rss_sim list))."
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "scenarios" ] ~docv:"NAMES" ~doc)
  in
  let out_dir =
    let doc =
      "With --matrix: write the matrix as CSV and JSON (league included) \
       under this directory."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let run_matrix ~jobs ~policies ~scenarios ~out_dir ~duration_s ~seed =
    let duration = Sim.Time.of_sec duration_s in
    let table, failures =
      try
        Engine.Pool.with_pool ~jobs (fun pool ->
            Core.Arena.run_collect ~pool ?policies ?scenarios ~duration ~seed
              ())
      with Invalid_argument e ->
        prerr_endline e;
        exit 2
    in
    print_string (Core.Arena.render table);
    (match out_dir with
    | None -> ()
    | Some dir ->
        let csv_path = Filename.concat dir "policy_matrix.csv" in
        Report.Csv.write_string ~path:csv_path (Core.Arena.to_csv table);
        Printf.printf "wrote %s\n" csv_path;
        let json_path = Filename.concat dir "policy_matrix.json" in
        Report.Csv.write_string ~path:json_path
          (Report.Json.to_string (Core.Arena.to_json table));
        Printf.printf "wrote %s\n" json_path);
    if failures <> [] then begin
      print_failure_table failures;
      exit 1
    end
  in
  let action jobs matrix policies scenarios out_dir rate_mbps rtt_ms ifq
      duration_s seed loss =
    if matrix then
      run_matrix ~jobs ~policies ~scenarios ~out_dir ~duration_s ~seed
    else begin
      let cells =
        List.map
          (fun slow_start ->
            spec_of ~rate_mbps ~rtt_ms ~ifq ~duration_s ~seed ~loss
              { Core.Spec.default_flow with Core.Spec.slow_start })
          [ "standard"; "limited"; "hystart"; "restricted" ]
      in
      let verdicts =
        Engine.Pool.with_pool ~jobs (fun pool ->
            Core.Spec.run_batch_collect ~pool cells)
      in
      List.iter
        (function
          | Ok o -> List.iter print_result o.Core.Spec.results
          | Error _ -> ())
        verdicts;
      let failures =
        List.filter_map
          (function Ok _ -> None | Error f -> Some f)
          verdicts
      in
      if failures <> [] then begin
        print_failure_table failures;
        exit 1
      end
    end
  in
  let term =
    Term.(
      const action $ jobs $ matrix $ policies $ scenarios $ out_dir
      $ rate_mbps $ rtt_ms $ ifq $ duration_s $ seed $ loss)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run every slow-start policy on the same path and compare; with \
          --matrix, run the full policy-zoo arena and print a league \
          table.")
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
    Arg.(value & opt positive_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
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
    Arg.(value & opt positive_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
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
        | Ok spec -> (
            try
              let outcome = Core.Spec.run spec in
              List.iter print_result outcome.Core.Spec.results;
              print_path_stats outcome.Core.Spec.path;
              Printf.printf "quarantined job replayed clean\n"
            with e ->
              Printf.eprintf "quarantined job still fails: %s\n"
                (Printexc.to_string e);
              exit 1))
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

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let spec_file =
    let doc = "JSON scenario spec to run under the tracer." in
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let out_dir =
    let doc =
      "Directory for the artifacts: <name>_events.csv (the event ring), \
       <name>_trace.json (Chrome trace_event, load in chrome://tracing \
       or Perfetto) and <name>_metrics.csv (the unified metrics \
       registry sampled every sample_period)."
    in
    Arg.(value & opt string "results/trace" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let jobs =
    let doc =
      "Worker domains (1 disables parallelism). Artifacts are \
       byte-identical for any value."
    in
    Arg.(value & opt positive_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let capacity =
    let doc =
      "Override the spec's trace_capacity (ring size in records; oldest \
       records are overwritten beyond it)."
    in
    Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let action spec_path out_dir jobs capacity =
    let spec = load_spec spec_path in
    (* The subcommand's whole point is tracing: force it on, whatever
       the spec says. *)
    let spec =
      {
        spec with
        Core.Spec.record_trace = true;
        trace_capacity =
          (match capacity with
          | Some c -> c
          | None -> spec.Core.Spec.trace_capacity);
      }
    in
    let outcome = run_spec ~jobs spec in
    List.iter print_result outcome.Core.Spec.results;
    print_path_stats outcome.Core.Spec.path;
    let tr =
      match outcome.Core.Spec.trace with
      | Some tr -> tr
      | None -> assert false (* record_trace was forced on *)
    in
    Printf.printf
      "trace        %d record(s) retained, %d dropped (ring capacity %d)\n"
      (Trace.length tr) (Trace.dropped tr) (Trace.capacity tr);
    List.iter
      (Printf.printf "wrote %s\n")
      (Serve.Artifacts.write_trace ~dir:out_dir spec outcome)
  in
  let term = Term.(const action $ spec_file $ out_dir $ jobs $ capacity) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a JSON-described scenario with the run-wide event tracer \
          and metrics registry attached, then export the ring as CSV \
          and Chrome trace_event JSON plus a metrics time-series CSV. \
          Deterministic: artifacts are byte-identical at any --jobs.")
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
      & opt positive_int (Engine.Pool.default_jobs ())
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
        Printf.printf "  %-8s %s\n" id title)
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
    print_docs "named bundles (compare --matrix rows):" Tcp.Policy.bundles;
    print_endline "";
    print_docs "arena scenarios (compare --matrix columns):"
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

(* --- meanfield ----------------------------------------------------------- *)

let meanfield_cmd =
  let fast =
    let doc =
      "Shorter runs (8 s) over a narrower flow-count spread — the CI smoke \
       configuration."
    in
    Arg.(value & flag & info [ "fast" ] ~doc)
  in
  let flows =
    let doc =
      "Comma-separated flow counts to simulate (default: powers of two \
       spanning 1/8x..8x the predicted boundary)."
    in
    Arg.(value & opt (some (list int)) None & info [ "flows" ] ~docv:"N,..." ~doc)
  in
  let jobs =
    let doc = "Worker domains for the sweep." in
    Arg.(value & opt positive_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let action fast flows jobs seed rate_mbps rtt_ms ifq =
    let path =
      {
        Core.Meanfield.paper_path with
        Core.Meanfield.capacity = Sim.Units.mbps rate_mbps /. 8.;
        base_rtt = Sim.Time.ms rtt_ms;
        buffer_packets = ifq;
      }
    in
    let critical = Core.Meanfield.critical_flows path in
    Printf.printf
      "mean-field oracle: predicted stability boundary at N = %d flows\n"
      critical;
    let duration = Sim.Time.sec (if fast then 8 else 30) in
    let flows =
      match flows with
      | Some ns -> Some ns
      | None ->
          if fast then
            Some
              (List.sort_uniq compare
                 [
                   Stdlib.max 1 (critical / 8);
                   Stdlib.max 1 (critical / 4);
                   critical * 2;
                   critical * 4;
                 ])
          else None
    in
    let s =
      Engine.Pool.with_pool ~jobs (fun pool ->
          Core.Meanfield.sweep ~pool ~duration ?flows path ~seed)
    in
    Printf.printf "  %8s  %8s  %11s  %10s  %9s  %11s\n" "flows" "margin"
      "predicted" "queue-mean" "amplitude" "measured";
    let name = function
      | Core.Meanfield.Stable -> "stable"
      | Core.Meanfield.Oscillatory -> "oscillatory"
    in
    List.iter
      (fun (sp : Core.Meanfield.sweep_point) ->
        Printf.printf "  %8d  %8.3f  %11s  %10.1f  %9.3f  %11s%s\n"
          sp.Core.Meanfield.sp_flows sp.sp_margin (name sp.sp_predicted)
          sp.sp_queue_mean sp.sp_amplitude (name sp.sp_measured)
          (if sp.sp_in_band then "  (boundary band, not scored)" else ""))
      s.Core.Meanfield.points;
    Printf.printf
      "agreement outside the 0.25x..2x boundary band: %d/%d\n"
      s.Core.Meanfield.agreed s.Core.Meanfield.out_of_band;
    if s.Core.Meanfield.agreed < s.Core.Meanfield.out_of_band then exit 1
  in
  let term =
    Term.(
      const action $ fast $ flows $ jobs $ seed $ rate_mbps $ rtt_ms $ ifq)
  in
  Cmd.v
    (Cmd.info "meanfield"
       ~doc:
         "Sweep the many-flows engine across flow counts and check the \
          measured stable/oscillatory RED-queue boundary against the \
          mean-field oracle's prediction (exits 1 on disagreement outside \
          the documented tolerance band).")
    term

(* --- calibrate ----------------------------------------------------------- *)

let calibrate_cmd =
  let action rate_mbps rtt_ms ifq =
    match
      Core.Calibrate.ultimate_gain ~rate:(Sim.Units.mbps rate_mbps)
        ~one_way_delay:(Sim.Time.ms (rtt_ms / 2))
        ~ifq_capacity:ifq ()
    with
    | Error e ->
        Printf.eprintf "calibration failed: %s\n" e;
        exit 1
    | Ok result ->
        let critical = result.Control.Ziegler_nichols.critical in
        Format.printf "critical point: %a@." Control.Tuning.pp_critical
          critical;
        let show name gains =
          Format.printf "  %-14s %a@." name Control.Pid.pp_gains gains
        in
        show "paper rule" (Control.Tuning.paper_pid critical);
        show "classic ZN" (Control.Tuning.zn_pid critical);
        show "ZN PI" (Control.Tuning.zn_pi critical);
        show "Tyreus-Luyben" (Control.Tuning.tyreus_luyben critical);
        show "Pessen" (Control.Tuning.pessen critical)
  in
  let term = Term.(const action $ rate_mbps $ rtt_ms $ ifq) in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Measure the IFQ plant's critical point with the in-simulation \
          Ziegler-Nichols experiment and print tuned gains.")
    term

let () =
  let doc = "Restricted Slow-Start for TCP — simulator front end" in
  let info = Cmd.info "rss_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; compare_cmd; chaos_cmd; serve_cmd; trace_cmd;
            calibrate_cmd; meanfield_cmd; experiments_cmd; list_cmd;
            spec_cmd ]))
