(* Execution: per-flow instruments and the metrics registry around the
   run, result collection, checkpoint/resume and the run itself. The
   per-sample helpers live beside their callers: the dev profile
   compiles with -opaque, so a float returned across a module boundary
   is boxed. *)

open Spec_types
open Spec_build

let mss_f = float_of_int Tcp.Config.default.Tcp.Config.mss

type instrument = {
  ibf : built_flow;
  stalls_s : Sim.Stats.Series.t;
  cwnd_s : Sim.Stats.Series.t;
  ifq_s : Sim.Stats.Series.t;
  throughput_s : Sim.Stats.Series.t;
  srtt_s : Sim.Stats.Series.t;
  mutable last_bytes : int;
}

let empty_instrument bf =
  {
    ibf = bf;
    stalls_s = Sim.Stats.Series.create ~name:"send_stalls" ();
    cwnd_s = Sim.Stats.Series.create ~name:"cwnd_segments" ();
    ifq_s = Sim.Stats.Series.create ~name:"ifq_packets" ();
    throughput_s = Sim.Stats.Series.create ~name:"throughput_mbps" ();
    srtt_s = Sim.Stats.Series.create ~name:"srtt_ms" ();
    last_bytes = 0;
  }

let sender_receiver bf =
  match bf.driver with
  | Some (Bulk_driver t) ->
      Some (Workload.Bulk.sender t, Workload.Bulk.receiver t)
  | Some (Chunked_driver t) ->
      Some (Workload.Chunked.sender t, Workload.Chunked.receiver t)
  | _ -> None

let tcp_senders b =
  List.filter_map (fun bf -> Option.map fst (sender_receiver bf)) b.bflows

(* Aggregates over a sharded many-flows engine array: sums for counters
   and delivered bytes, an active-weighted mean for the window, and the
   arithmetic mean across shards for the per-segment fluid queues (each
   shard models its own segment's bottleneck, so "the" queue reading is
   the typical segment's). A single shard degenerates to the engine's
   own values exactly. *)
let mf_sum f shards = Array.fold_left (fun acc e -> acc +. f e) 0. shards

let mf_mean f shards =
  if Array.length shards = 0 then 0.
  else mf_sum f shards /. float_of_int (Array.length shards)

let mf_mean_cwnd shards =
  let active =
    Array.fold_left (fun a e -> a + Workload.Many_flows.active e) 0 shards
  in
  if active = 0 then 0.
  else
    Array.fold_left
      (fun acc e ->
        acc
        +. Workload.Many_flows.mean_cwnd_segments e
           *. float_of_int (Workload.Many_flows.active e))
      0. shards
    /. float_of_int active

(* [now] is the sampling instant, the coordinator break every partition
   clock sits at. *)
let sample_instrument b ~now inst =
  match inst.ibf.driver with
  | Some (Many_driver shards) ->
      (* Aggregate gauges of the fluid engine: mean window, fluid
         backlog, and goodput over the sample window. *)
      Sim.Stats.Series.add inst.cwnd_s now (mf_mean_cwnd shards);
      Sim.Stats.Series.add inst.ifq_s now
        (mf_mean Workload.Many_flows.queue_packets shards);
      let bytes =
        int_of_float (mf_sum Workload.Many_flows.delivered_bytes shards)
      in
      let window_mbps =
        float_of_int (8 * (bytes - inst.last_bytes))
        /. Sim.Time.to_sec b.bspec.sample_period /. 1e6
      in
      inst.last_bytes <- bytes;
      Sim.Stats.Series.add inst.throughput_s now window_mbps
  | _ -> (
      match sender_receiver inst.ibf with
      | None -> ()
      | Some (sender, receiver) ->
      Sim.Stats.Series.add inst.stalls_s now
        (float_of_int (Tcp.Sender.send_stalls sender));
      Sim.Stats.Series.add inst.cwnd_s now (Tcp.Sender.cwnd sender /. mss_f);
      Sim.Stats.Series.add inst.ifq_s now
        (float_of_int (Netsim.Ifq.occupancy (Netsim.Host.ifq inst.ibf.src)));
      let bytes = Tcp.Receiver.bytes_received receiver in
      let window_mbps =
        float_of_int (8 * (bytes - inst.last_bytes))
        /. Sim.Time.to_sec b.bspec.sample_period /. 1e6
      in
      inst.last_bytes <- bytes;
      Sim.Stats.Series.add inst.throughput_s now window_mbps;
      (match Tcp.Sender.srtt sender with
          | Some s -> Sim.Stats.Series.add inst.srtt_s now (Sim.Time.to_ms s)
          | None -> ()))

let is_tcp_workload = function
  | Bulk _ | Chunked _ -> true
  | Cbr _ | On_off _ | Short_flows _ | Many_flows _ -> false

(* Flows whose series and goodput report TCP dynamics: the
   single-connection drivers plus the aggregate many-flows engine. The
   latter stays out of {!is_tcp_workload} so the unified registry only
   registers web100 variables for connections that actually carry a
   kernel instrument set. *)
let tcp_series_workload = function
  | Bulk _ | Chunked _ | Many_flows _ -> true
  | Cbr _ | On_off _ | Short_flows _ -> false

let time_to_90pct line_mbps throughput_s =
  let times = Sim.Stats.Series.times throughput_s in
  let values = Sim.Stats.Series.values throughput_s in
  let rec search i =
    if i >= Array.length values then None
    else if values.(i) >= 0.9 *. line_mbps then Some (Sim.Time.to_sec times.(i))
    else search (i + 1)
  in
  search 0

(* A TCP flow's result: [zero]'s gauges and series with its sender's and
   receiver's counters. *)
let tcp_result b inst zero sender receiver completion =
  let goodput = Tcp.Receiver.goodput_mbps receiver ~at:b.bspec.duration in
  {
    zero with
    goodput_mbps = goodput;
    utilization = goodput /. b.line_mbps;
    send_stalls = Tcp.Sender.send_stalls sender;
    congestion_signals = Tcp.Sender.congestion_signals sender;
    retransmits = Tcp.Sender.retransmits sender;
    timeouts = Tcp.Sender.timeouts sender;
    final_cwnd_segments = Tcp.Sender.cwnd sender /. mss_f;
    ce_marks = Tcp.Receiver.ce_marks_seen receiver;
    completion;
    time_to_90pct_util = time_to_90pct b.line_mbps inst.throughput_s;
  }

let collect_flow b inst =
  let bf = inst.ibf in
  let duration = b.bspec.duration in
  let ifq = Netsim.Host.ifq bf.src in
  let zero =
    {
      label = bf.flabel;
      goodput_mbps = 0.;
      utilization = 0.;
      send_stalls = 0;
      congestion_signals = 0;
      retransmits = 0;
      timeouts = 0;
      final_cwnd_segments = 0.;
      mean_ifq = Netsim.Ifq.mean_occupancy ifq;
      peak_ifq = Netsim.Ifq.peak_occupancy ifq;
      ce_marks = 0;
      completion = None;
      time_to_90pct_util = None;
      stalls_series = inst.stalls_s;
      cwnd_series = inst.cwnd_s;
      ifq_series = inst.ifq_s;
      throughput_series = inst.throughput_s;
      srtt_series = inst.srtt_s;
    }
  in
  let udp_goodput packets packet_bytes =
    float_of_int (8 * packets * packet_bytes) /. Sim.Time.to_sec duration /. 1e6
  in
  match bf.driver with
  | None -> zero
  | Some (Bulk_driver t) ->
      tcp_result b inst zero (Workload.Bulk.sender t) (Workload.Bulk.receiver t)
        (Workload.Bulk.completion_time t)
  | Some (Chunked_driver t) ->
      tcp_result b inst zero (Workload.Chunked.sender t)
        (Workload.Chunked.receiver t) None
  | Some (Cbr_driver (t, packet_bytes)) ->
      let goodput = udp_goodput (Workload.Cbr.packets_sent t) packet_bytes in
      {
        zero with
        goodput_mbps = goodput;
        utilization = goodput /. b.line_mbps;
        send_stalls = Workload.Cbr.packets_stalled t;
      }
  | Some (On_off_driver (t, packet_bytes)) ->
      let goodput =
        udp_goodput (Workload.On_off.packets_sent t) packet_bytes
      in
      { zero with goodput_mbps = goodput; utilization = goodput /. b.line_mbps }
  | Some (Short_driver t) ->
      let bytes =
        List.fold_left
          (fun acc (c : Workload.Short_flows.completed) -> acc + c.size)
          0
          (Workload.Short_flows.completions t)
      in
      let goodput =
        float_of_int (8 * bytes) /. Sim.Time.to_sec duration /. 1e6
      in
      { zero with goodput_mbps = goodput; utilization = goodput /. b.line_mbps }
  | Some (Many_driver shards) ->
      let goodput =
        mf_sum (fun e -> Workload.Many_flows.goodput_mbps e ~duration) shards
      in
      {
        zero with
        goodput_mbps = goodput;
        (* Aggregate goodput over aggregate capacity: the shards sum
           over one bottleneck per segment. *)
        utilization =
          goodput /. (b.line_mbps *. float_of_int (Array.length shards));
        congestion_signals =
          Array.fold_left
            (fun a e -> a + Workload.Many_flows.loss_events e)
            0 shards;
        final_cwnd_segments = mf_mean_cwnd shards;
        (* The engines' fluid backlog, not the host IFQ (which the
           abstract flows never traverse); the mean across the
           per-segment shards. *)
        mean_ifq = mf_mean Workload.Many_flows.avg_queue_packets shards;
        peak_ifq = mf_mean Workload.Many_flows.queue_packets shards;
      }

(* One namespace over everything the run can report, in a fixed order:
   web100 per-connection variables (conn/<label>/<Var>, flow order, each
   flow's in Tcp.Sender.kis order), then pipe counters
   (link/<dir>/<what>), then per-host soft-component gauges
   (host/<id>/<what>, pair order). Registration rejects duplicates, so
   two flows sharing a label fail loudly instead of silently misaligning
   every exported column after them. *)
let build_registry b =
  let reg = Trace.Registry.create () in
  List.iter
    (fun bf ->
      if is_tcp_workload bf.fspec.workload then
        List.iter
          (fun (var, read) ->
            (* The sender may not exist yet (its start break is still
               ahead); probes resolve it at sampling time and read 0
               until. *)
            Trace.Registry.register reg
              ~name:(Printf.sprintf "conn/%s/%s" bf.flabel var)
              (fun () ->
                match sender_receiver bf with
                | Some (sender, _) -> read sender
                | None -> 0.))
          Tcp.Sender.kis)
    b.bflows;
  let link_metrics dir link =
    List.iter
      (fun (what, probe) ->
        Trace.Registry.register reg
          ~name:(Printf.sprintf "link/%s/%s" dir what)
          probe)
      [
        ("delivered", fun () -> float_of_int (Netsim.Link.delivered link));
        ("lost", fun () -> float_of_int (Netsim.Link.lost link));
        ("duplicated", fun () -> float_of_int (Netsim.Link.duplicated link));
        ("in_flight", fun () -> float_of_int (Netsim.Link.in_flight link));
      ]
  in
  link_metrics "forward" (forward_link b);
  link_metrics "reverse" (reverse_link b);
  (* Cross-segment pairs reuse hosts that already appeared under their
     own segment pair, so register each host once (first occurrence). *)
  let seen_hosts = Hashtbl.create 16 in
  for pair = 0 to pairs_of b.bspec.topology - 1 do
    let src, dst = pair_hosts b.net pair in
    List.iter
      (fun host ->
        let id = Netsim.Host.id host in
        if not (Hashtbl.mem seen_hosts id) then begin
        Hashtbl.add seen_hosts id ();
        let ifq = Netsim.Host.ifq host in
        let nic = Netsim.Host.nic host in
        List.iter
          (fun (what, probe) ->
            Trace.Registry.register reg
              ~name:(Printf.sprintf "host/%d/%s" id what)
              probe)
          [
            ("ifq_occupancy", fun () -> float_of_int (Netsim.Ifq.occupancy ifq));
            ("ifq_stalls", fun () -> float_of_int (Netsim.Ifq.stalls ifq));
            ("nic_tx_packets", fun () -> float_of_int (Netsim.Nic.tx_packets nic));
            ("nic_tx_bytes", fun () -> float_of_int (Netsim.Nic.tx_bytes nic));
          ]
        end)
      [ src; dst ]
  done;
  reg

let jain = function
  | [] -> 1.
  | xs ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0. xs in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
      if s2 <= 0. then 1. else s *. s /. (n *. s2)

(* --- checkpoint / resume ------------------------------------------------ *)

(* Snapshotability is a property of what lives in the event heap: heap
   events are closures and cannot serialize, so a checkpointable run
   must keep the heap empty — everything dynamic lives in the
   many-flows engine (SoA flow table + timer wheel + fluid scalars),
   and samples are coordinator breaks, not events. That rules out
   per-packet senders, delayed flow starts, fault schedules and the
   trace ring. *)
let snapshot_support_error t =
  if t.domains > 1 then
    Some "partitioned runs (domains > 1) spread state over several heaps"
  else if t.record_trace then
    Some "record_trace is on (the event ring is not serializable)"
  else if
    t.faults.forward <> Fm.passthrough || t.faults.reverse <> Fm.passthrough
  then Some "fault profiles schedule unserializable heap events"
  else
    match t.flows with
    | [ { workload = Many_flows _; start_at; _ } ]
      when Sim.Time.compare start_at Sim.Time.zero = 0 ->
        None
    | _ ->
        Some
          "only specs whose single flow is a many_flows workload starting \
           at t=0 keep all run state out of the event heap"

let snapshot_supported t = snapshot_support_error t = None

let check_snapshot_supported t =
  match snapshot_support_error t with
  | None -> ()
  | Some why -> err "Spec: %S cannot checkpoint/resume: %s" t.name why

(* The single many_flows flow's shard array. Shard 0 keeps the legacy
   ["mf."] snapshot prefix (pre-sharding images restore unchanged);
   siblings get ["mf.<k>."]. *)
let the_engines b =
  let shards =
    List.filter_map
      (fun bf ->
        match bf.driver with Some (Many_driver a) -> Some a | _ -> None)
      b.bflows
  in
  match shards with
  | [ a ] when Array.length a > 0 -> a
  | _ -> err "Spec: checkpoint requires exactly one started many_flows flow"

let shard_prefix k = if k = 0 then "mf." else Printf.sprintf "mf.%d." k

let save_series w name s =
  Sim.Snapshot.put_int_array w (name ^ ".t")
    (Array.map Sim.Time.to_ns_int (Sim.Stats.Series.times s));
  Sim.Snapshot.put_float_array w (name ^ ".v") (Sim.Stats.Series.values s)

let restore_series r name s =
  let ts = Sim.Snapshot.get_int_array r (name ^ ".t") in
  let vs = Sim.Snapshot.get_float_array r (name ^ ".v") in
  if Array.length ts <> Array.length vs then
    raise (Sim.Snapshot.Corrupt ("Spec: ragged series " ^ name));
  Array.iteri
    (fun i t -> Sim.Stats.Series.add s (Sim.Time.of_ns_int t) vs.(i))
    ts

let instrument_sections i inst =
  let p name = Printf.sprintf "inst.%d.%s" i name in
  [
    (p "stalls", inst.stalls_s);
    (p "cwnd", inst.cwnd_s);
    (p "ifq", inst.ifq_s);
    (p "throughput", inst.throughput_s);
    (p "srtt", inst.srtt_s);
  ]

(* The snapshot embeds the canonical spec JSON so a resume against the
   wrong spec fails loudly instead of continuing a different scenario,
   and copies raw engine state without integrating the fluid queue to
   the snapshot time — polling here would split one integration
   interval in two and diverge from an unbroken run. *)
let save_checkpoint ~identity b instruments ~path =
  let w = Sim.Snapshot.writer () in
  Sim.Snapshot.put_bytes w "spec.identity" (Lazy.force identity);
  Sim.Snapshot.put_int w "spec.clock_ns"
    (Sim.Time.to_ns_int (Sim.Scheduler.now (sched b)));
  Sim.Snapshot.put_i64 w "spec.sched_rng"
    (Sim.Rng.state (Sim.Scheduler.rng (sched b)));
  Array.iteri
    (fun k eng -> Workload.Many_flows.save ~prefix:(shard_prefix k) eng w)
    (the_engines b);
  List.iteri
    (fun i inst ->
      Sim.Snapshot.put_int w
        (Printf.sprintf "inst.%d.last_bytes" i)
        inst.last_bytes;
      List.iter
        (fun (name, s) -> save_series w name s)
        (instrument_sections i inst))
    instruments;
  Sim.Snapshot.save w ~path

(* Restore into a freshly-built spec. Build-time state (initial wheel
   arms, RNG draws, free-list order) is fully overwritten, so the
   restored image — not construction history — determines every
   subsequent transition. *)
let restore_checkpoint ~identity b instruments ~path =
  check_snapshot_supported b.bspec;
  let r = Sim.Snapshot.load ~path in
  let stored = Sim.Snapshot.get_bytes r "spec.identity" in
  if stored <> Lazy.force identity then
    err "Spec: snapshot %s was taken from a different spec" path;
  Sim.Rng.set_state
    (Sim.Scheduler.rng (sched b))
    (Sim.Snapshot.get_i64 r "spec.sched_rng");
  (* Engine before clock: the restore drains the fresh build's wheel
     arms (which sit earlier than the snapshot time) and re-arms from
     the snapshot, so the clock is checked against post-snapshot timers
     only. A clock past one of them would fire it in the past. *)
  Array.iteri
    (fun k eng -> Workload.Many_flows.restore ~prefix:(shard_prefix k) eng r)
    (the_engines b);
  let clock_ns = Sim.Snapshot.get_int r "spec.clock_ns" in
  let next_ns = Sim.Scheduler.next_ns (sched b) in
  if clock_ns < 0 || (next_ns >= 0 && clock_ns > next_ns) then
    raise
      (Sim.Snapshot.Corrupt
         (Printf.sprintf
            "Spec: spec.clock_ns %d is negative or past the earliest \
             restored timer (%d ns)"
            clock_ns next_ns));
  Sim.Scheduler.restore_clock (sched b) (Sim.Time.of_ns_int clock_ns);
  List.iteri
    (fun i inst ->
      inst.last_bytes <-
        Sim.Snapshot.get_int r (Printf.sprintf "inst.%d.last_bytes" i);
      List.iter
        (fun (name, s) -> restore_series r name s)
        (instrument_sections i inst))
    instruments

(* A break's loops live at top level, so taking a break allocates no
   closure: a run allocates per sample only what the sample records. *)
let rec start_due b now = function
  | [] -> ()
  | bf :: rest ->
      if Sim.Time.compare bf.fspec.start_at now = 0 then start_flow b bf;
      start_due b now rest

let rec sample_all b now = function
  | [] -> ()
  | inst :: rest ->
      sample_instrument b ~now inst;
      sample_all b now rest

(* Every run goes through [Sim.Partition.run], one partition or many.
   Delayed flow starts and the sample grid are coordinator breaks: at
   each, every event before it has fired and none at it has, every
   partition clock reads it, and [on_break] starts the flows due then,
   samples the per-flow series, then the metrics registry. A sample at
   t therefore reads the model after every event before t and before
   any at t, at any [domains]. Breaks at or before the clock are
   skipped, so a resumed run or a later checkpoint slice takes only the
   breaks still ahead. *)
let execute_core ?checkpoint ~resume ~identity b =
  (match checkpoint with
  | Some ck when Sim.Time.(ck.interval <= Sim.Time.zero) ->
      err "Spec: checkpoint interval must be positive"
  | Some _ -> check_snapshot_supported b.bspec
  | None -> ());
  let instruments = List.map empty_instrument b.bflows in
  let resumed =
    match resume with
    | None -> None
    | Some path ->
        restore_checkpoint ~identity b instruments ~path;
        Some path
  in
  let sampled =
    if b.bspec.record_series then
      List.filter
        (fun inst -> tcp_series_workload inst.ibf.fspec.workload)
        instruments
    else []
  in
  let registry = Option.map (fun _ -> build_registry b) b.btrace in
  let metrics_acc = ref [] in
  let per_ns = Sim.Time.to_ns_int b.bspec.sample_period in
  let sample_grid =
    if sampled = [] && Option.is_none registry then []
    else
      List.init
        (Sim.Time.to_ns_int b.bspec.duration / per_ns)
        (fun k -> Sim.Time.of_ns_int ((k + 1) * per_ns))
  in
  (* A flow starting at t = 0 started in build, and [Partition.run]
     skips breaks at or before the clock: its start is never taken. *)
  let breaks = List.map (fun bf -> bf.fspec.start_at) b.bflows @ sample_grid in
  let on_break now =
    start_due b now b.bflows;
    if Sim.Time.to_ns_int now mod per_ns = 0 then begin
      sample_all b now sampled;
      match registry with
      | None -> ()
      | Some reg ->
          metrics_acc :=
            (Sim.Time.to_sec now, Trace.Registry.sample reg) :: !metrics_acc
    end
  in
  let run_to until =
    Sim.Partition.run b.parts ~until ~workers:b.bspec.domains ~breaks
      ~on_break ()
  in
  (match checkpoint with
  | None -> run_to b.bspec.duration
  | Some ck ->
      (* Run in interval-sized slices. [run ~until:t1; run ~until:t2]
         is equivalent to [run ~until:t2], so slicing (and therefore
         where checkpoints land) never changes the simulation — only
         what survives a kill. No snapshot at the final boundary: the
         run is complete, its outputs are the artifact. *)
      let duration = b.bspec.duration in
      let rec slice t0 =
        let next = Sim.Time.min duration (Sim.Time.add t0 ck.interval) in
        run_to next;
        if Sim.Time.(next < duration) then begin
          save_checkpoint ~identity b instruments ~path:ck.snapshot_path;
          if ck.should_stop () then
            raise (Drained { at = next; snapshot = ck.snapshot_path })
          else slice next
        end
      in
      slice (Sim.Scheduler.now (sched b)));
  let results = List.map (collect_flow b) instruments in
  let tcp_goodputs =
    List.filter_map
      (fun (bf, r) ->
        if tcp_series_workload bf.fspec.workload then Some r.goodput_mbps
        else None)
      (List.combine b.bflows results)
  in
  let pair0_ifq =
    match b.bflows with
    | bf :: _ -> Netsim.Host.ifq bf.src
    | [] -> Netsim.Host.ifq (fst (pair_hosts b.net 0))
  in
  let router_drops =
    match b.net with
    | Net_duplex _ -> 0
    | Net_multi md ->
        Array.fold_left
          (fun acc (s : Netsim.Topology.Multi_dumbbell.segment) ->
            acc
            + Netsim.Router.dropped s.Netsim.Topology.Multi_dumbbell.router_l
            + Netsim.Router.dropped s.Netsim.Topology.Multi_dumbbell.router_r)
          0 md.Netsim.Topology.Multi_dumbbell.segments
  in
  {
    results;
    path =
      {
        aggregate_goodput_mbps = List.fold_left ( +. ) 0. tcp_goodputs;
        jain_index = jain tcp_goodputs;
        queue_mean = Netsim.Ifq.mean_occupancy pair0_ifq;
        queue_peak = Netsim.Ifq.peak_occupancy pair0_ifq;
        router_drops;
      };
    trace = b.btrace;
    metrics =
      Option.map
        (fun reg ->
          {
            metric_names = Trace.Registry.names reg;
            samples = List.rev !metrics_acc;
          })
        registry;
    resume_from = resumed;
  }
