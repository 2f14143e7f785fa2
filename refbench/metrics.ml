(* Every metric the benchmark reports, in print order: its name, its
   unit and how its samples are read off a run. This is the one list
   of them in the code; BENCHMARK.json names the same metrics with the
   same units (the self-test checks it) and adds each one's direction
   and, end to end, its bound. *)

open Passes

type 'run t = { name : string; unit : string; samples : 'run -> float list }

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

(* --- end to end: one JSON object per child-process sample ---------- *)

let field k j =
  match Report.Json.member k j with
  | Some v -> v
  | None -> failwith ("sample: no field " ^ k)

let fnum k j =
  match Report.Json.number (field k j) with
  | Some f -> f
  | None -> failwith ("sample: " ^ k)

let flist k j =
  match Report.Json.list_value (field k j) with
  | Some l -> l
  | None -> failwith ("sample: " ^ k)

let each name unit f = { name; unit; samples = List.map f }

let latency reduce j =
  match List.filter_map Report.Json.number (flist "latencies" j) with
  | [] -> nan
  | l -> reduce l

let end_to_end =
  [
    each "sim_s_per_wall_s" "sim-s/s" (fun j -> fnum "sim_s" j /. fnum "wall_s" j);
    each "setup_s" "s" (fnum "setup_s");
    each "peak_heap_mb" "MiB" (fnum "peak_heap_mb");
    each "job_latency_p50_s" "s" (latency Stats.median);
    each "job_latency_max_s" "s" (latency (List.fold_left Float.max 0.));
  ]

(* --- the layer run ------------------------------------------------- *)

(* Four adjacent passes over the workload's specs. *)
type round = {
  native : spec_run list;  (** as specified, artifacts written *)
  d2 : spec_run list;  (** on Sim.Partition with two domains *)
  traced : spec_run list;  (** scheduler dispatches counted *)
  checkpointed : (spec_run * int) list;
      (** the checkpointable specs, snapshotted every simulated second,
          with the size of the last image *)
}

type layers = {
  rounds : round list;  (** at least one *)
  serve_j1 : served;  (** the specs as one batch at jobs 1 *)
  serve_j2 : served;  (** and at jobs 2 *)
}

let first l = List.hd l.rounds
let per_round name unit f = { name; unit; samples = (fun l -> List.map f l.rounds) }
let once name unit f = { name; unit; samples = (fun l -> [ f l ]) }
let exec runs = sum (fun r -> r.execute_s) runs
let phase name f = per_round name "s" (fun r -> sum f r.native)
let events l = sum (fun r -> float_of_int r.events) (first l).traced

(* A registry counter summed over every instance of it in the traced
   pass, e.g. link/<id>/delivered. *)
let counter name ~prefix ~suffix =
  once name "count" (fun l ->
      sum
        (fun r ->
          sum
            (fun (n, v) ->
              if String.starts_with ~prefix n && String.ends_with ~suffix n then v
              else 0.)
            r.counters)
        (first l).traced)

let mf name unit f =
  once name unit (fun l -> float_of_int (List.fold_left (fun a r -> a + f r.mf) 0 (first l).native))

let gc name unit f = once name unit (fun l -> sum f (first l).native)

let checkpoint_overhead r =
  sum
    (fun ((c : spec_run), _) ->
      match List.find_opt (fun (n : spec_run) -> n.name = c.name) r.native with
      | Some n -> c.execute_s -. n.execute_s
      | None -> nan)
    r.checkpointed

let serve_p50 name f =
  once name "s" (fun l ->
      match l.serve_j1.jobs_run with [] -> nan | jobs -> Stats.median (List.map f jobs))

let serve_stat name f =
  once name "count" (fun l -> float_of_int (f l.serve_j1.stats))

let per_layer =
  [
    phase "core.spec.parse_s" (fun r -> r.parse_s);
    phase "core.spec.validate_s" (fun r -> r.validate_s);
    phase "core.spec.build_s" (fun r -> r.build_s);
    phase "core.spec.execute_s" (fun r -> r.execute_s);
    phase "serve.artifacts.write_s" (fun r -> r.write_s);
    once "sim.scheduler.events" "count" events;
    {
      name = "sim.scheduler.ns_per_event";
      unit = "ns";
      samples =
        (fun l ->
          List.map (fun r -> exec r.native *. 1e9 /. Float.max 1. (events l)) l.rounds);
    };
    once "gc.minor_words_per_event" "words" (fun l ->
        sum (fun r -> r.minor_words) (first l).native /. Float.max 1. (events l));
    gc "gc.promoted_words" "words" (fun r -> r.promoted_words);
    gc "gc.major_collections" "count" (fun r -> float_of_int r.major_collections);
    counter "netsim.link.delivered" ~prefix:"link/" ~suffix:"/delivered";
    counter "netsim.link.lost" ~prefix:"link/" ~suffix:"/lost";
    counter "netsim.ifq.stalls" ~prefix:"host/" ~suffix:"/ifq_stalls";
    counter "netsim.nic.tx_packets" ~prefix:"host/" ~suffix:"/nic_tx_packets";
    counter "tcp.pkts_out" ~prefix:"conn/" ~suffix:"/PktsOut";
    counter "tcp.pkts_retrans" ~prefix:"conn/" ~suffix:"/PktsRetrans";
    counter "tcp.send_stalls" ~prefix:"conn/" ~suffix:"/SendStall";
    counter "tcp.timeouts" ~prefix:"conn/" ~suffix:"/Timeouts";
    per_round "sim.partition.speedup_d2" "ratio" (fun r -> exec r.native /. exec r.d2);
    mf "workload.many_flows.created" "count" (fun m -> m.created);
    mf "workload.many_flows.completed" "count" (fun m -> m.completed);
    mf "workload.many_flows.loss_events" "count" (fun m -> m.loss_events);
    once "workload.many_flows.mean_cwnd_segments" "segments" (fun l ->
        let native = (first l).native in
        let active = float_of_int (List.fold_left (fun a r -> a + r.mf.active) 0 native) in
        if active = 0. then 0. else sum (fun r -> r.mf.cwnd_x_active) native /. active);
    mf "tcp.flow_table.capacity" "rows" (fun m -> m.table_capacity);
    mf "sim.timer_wheel.pending" "count" (fun m -> m.wheel_pending);
    per_round "workload.ns_per_flow_s" "ns" (fun r ->
        exec r.native *. 1e9 /. Float.max 1e-9 (sum (fun s -> s.flow_s) r.native));
    once "sim.snapshot.bytes" "bytes" (fun l ->
        sum (fun (_, bytes) -> float_of_int bytes) (first l).checkpointed);
    per_round "sim.snapshot.checkpoint_overhead_s" "s" checkpoint_overhead;
    serve_p50 "serve.queue_wait_s_p50" (fun j -> j.queued_s);
    serve_p50 "serve.job_run_s_p50" (fun j -> j.run_s);
    once "serve.overhead_s" "s" (fun l ->
        l.serve_j1.wall_s -. sum (fun j -> j.run_s) l.serve_j1.jobs_run);
    serve_stat "serve.retries" (fun s -> s.Serve.Supervisor.retries);
    serve_stat "serve.drains" (fun s -> s.Serve.Supervisor.drains);
    once "serve.journal_bytes" "bytes" (fun l -> float_of_int l.serve_j1.journal_bytes);
    once "engine.pool.speedup_j2" "ratio" (fun l -> l.serve_j1.wall_s /. l.serve_j2.wall_s);
    per_round "trace.overhead_pct" "%" (fun r ->
        100. *. ((exec r.traced /. exec r.native) -. 1.));
  ]
