(* Validation: every check build performs, without instantiating
   anything, so an invalid spec fails with a named error before any
   of it is built. *)

open Spec_types

let check_positive_rate what r =
  if not (r > 0.) then
    err "Spec.build: %s %g must be positive" what (Sim.Units.rate_to_mbps r)

let check_delay what d =
  if Sim.Time.is_negative d then
    err "Spec.build: %s %gms must be non-negative" what (Sim.Time.to_ms d)

(* RED's drop curve climbs from 0 at min_th to max_p at max_th (the
   mean-field gain divides by max_th - min_th), and the average queue
   moves by weight per arrival: weight 0 would switch RED off and a
   zero-width curve would force-drop every packet. *)
let check_red what (r : Netsim.Queue_disc.red_params) =
  if not (r.min_th >= 0.) then
    err "Spec.build: %s min_th %g must be >= 0" what r.min_th;
  if not (r.max_th > r.min_th) then
    err "Spec.build: %s max_th %g must exceed min_th %g" what r.max_th
      r.min_th;
  if not (r.max_p > 0. && r.max_p <= 1.) then
    err "Spec.build: %s max_p %g must be within (0, 1]" what r.max_p;
  if not (r.weight > 0. && r.weight <= 1.) then
    err "Spec.build: %s weight %g must be within (0, 1]" what r.weight

let check_faults direction profile =
  try Fm.validate profile
  with Invalid_argument e -> err "Spec.build: faults %s: %s" direction e

(* The restricted rules' PID tuning, range by range, so a bad value
   fails here and not inside build or mid-run. ti = infinity (no
   integral action) passes; max_step_segments = 0 freezes the window. *)
let validate_restricted i
    { Tcp.Slow_start.gains = { Control.Pid.kp; ti; td }; setpoint_fraction;
      max_step_segments; sample_min_interval } =
  let check ok name v rule =
    if not ok then
      err "Spec.build: flow %d: restricted %s %g must be %s" i name v rule
  in
  check (kp >= 0.) "kp" kp ">= 0";
  check (ti > 0.) "ti" ti "> 0";
  check (td >= 0.) "td" td ">= 0";
  check (setpoint_fraction > 0. && setpoint_fraction <= 1.)
    "setpoint_fraction" setpoint_fraction "within (0, 1]";
  check (max_step_segments >= 0.) "max_step_segments" max_step_segments
    ">= 0";
  check (Sim.Time.is_positive sample_min_interval) "sample_min_interval (ms)"
    (Sim.Time.to_ms sample_min_interval) "> 0"

let validate_flow ~topology i f =
  let pairs = pairs_of topology in
  if f.pair < 0 || f.pair >= pairs then
    err "Spec.build: flow %d: pair %d outside 0..%d" i f.pair (pairs - 1);
  if Sim.Time.is_negative f.start_at then
    err "Spec.build: flow %d: start time %gs must be non-negative" i
      (Sim.Time.to_sec f.start_at);
  if f.policy <> None && f.shared_rss then
    err "Spec.build: flow %d: policy and shared_rss are mutually exclusive" i;
  (* The RTO is clamped to max_rto, so a zero one re-fires the timer at
     the same instant forever. A negative ACK delay would be clamped to
     0 by the scheduler. *)
  (match f.max_rto with
  | Some rto when not (Sim.Time.is_positive rto) ->
      err "Spec.build: flow %d: max_rto %gs must be positive" i
        (Sim.Time.to_sec rto)
  | _ -> ());
  (match f.delayed_ack with
  | Some d when Sim.Time.is_negative d ->
      err "Spec.build: flow %d: delayed_ack %gs must be non-negative" i
        (Sim.Time.to_sec d)
  | _ -> ());
  Option.iter (validate_restricted i) f.restricted;
  let policy =
    try bundle_for f
    with Invalid_argument e -> err "Spec.build: flow %d: %s" i e
  in
  match f.workload with
  | Bulk { bytes = Some b } when b <= 0 ->
      err "Spec.build: flow %d: bytes %d must be positive" i b
  | Bulk _ -> ()
  | Chunked { chunk_bytes; interval; chunks } ->
      if chunk_bytes <= 0 then
        err "Spec.build: flow %d: chunk_bytes %d must be positive" i
          chunk_bytes;
      if Sim.Time.(interval <= Sim.Time.zero) then
        err "Spec.build: flow %d: chunk interval must be positive" i;
      (match chunks with
      | Some c when c <= 0 ->
          err "Spec.build: flow %d: chunks %d must be positive" i c
      | _ -> ())
  | Cbr { rate; packet_bytes; _ } ->
      check_positive_rate (Printf.sprintf "flow %d: cbr rate" i) rate;
      if packet_bytes <= 0 then
        err "Spec.build: flow %d: packet_bytes %d must be positive" i
          packet_bytes
  | On_off { peak_rate; mean_on; mean_off; packet_bytes } ->
      check_positive_rate (Printf.sprintf "flow %d: peak rate" i) peak_rate;
      if Sim.Time.(mean_on <= Sim.Time.zero)
         || Sim.Time.(mean_off <= Sim.Time.zero)
      then err "Spec.build: flow %d: on/off means must be positive" i;
      if packet_bytes <= 0 then
        err "Spec.build: flow %d: packet_bytes %d must be positive" i
          packet_bytes
  | Short_flows { arrival_rate; mean_size; pareto_shape; _ } ->
      if not (arrival_rate > 0.) then
        err "Spec.build: flow %d: arrival rate %g must be positive" i
          arrival_rate;
      if mean_size <= 0 then
        err "Spec.build: flow %d: mean size %d must be positive" i mean_size;
      if not (pareto_shape > 1.) then
        err "Spec.build: flow %d: pareto shape %g must exceed 1" i
          pareto_shape
  | Many_flows
      { flows; arrival_rate; arrival_pareto_shape; mean_size;
        size_pareto_shape } ->
      if flows <= 0 then
        err "Spec.build: flow %d: flows %d must be positive" i flows;
      Option.iter
        (err "Spec.build: flow %d: many_flows: %s" i)
        (Workload.Many_flows.cong_avoid_error policy.Tcp.Policy.cong_avoid);
      (match arrival_rate with
      | Some r when not (r > 0.) ->
          err "Spec.build: flow %d: arrival rate %g must be positive" i r
      | _ -> ());
      (match arrival_pareto_shape with
      | Some s when not (s > 1.) ->
          err "Spec.build: flow %d: arrival pareto shape %g must exceed 1" i s
      | _ -> ());
      (match mean_size with
      | Some m when m <= 0 ->
          err "Spec.build: flow %d: mean size %d must be positive" i m
      | _ -> ());
      if mean_size <> None && not (size_pareto_shape > 1.) then
        err "Spec.build: flow %d: size pareto shape %g must exceed 1" i
          size_pareto_shape;
      Option.iter
        (err "Spec.build: flow %d: many_flows: %s" i)
        (Workload.Many_flows.bottleneck_error (many_flows_bottleneck topology))

let validate (t : t) =
  if t.flows = [] then err "Spec.build: at least one flow is required";
  if Sim.Time.(t.duration <= Sim.Time.zero) then
    err "Spec.build: duration %gs must be positive"
      (Sim.Time.to_sec t.duration);
  if Sim.Time.(t.sample_period <= Sim.Time.zero) then
    err "Spec.build: sample_period %gs must be positive"
      (Sim.Time.to_sec t.sample_period);
  (match t.topology with
  | Duplex d ->
      check_positive_rate "rate" d.rate;
      check_delay "one_way_delay" d.one_way_delay;
      if d.ifq_capacity < 1 then
        err "Spec.build: ifq_capacity %d must be >= 1" d.ifq_capacity;
      if not (d.loss_rate >= 0. && d.loss_rate <= 1.) then
        err "Spec.build: loss_rate %g must be within [0, 1]" d.loss_rate;
      (match d.ifq_red_ecn with
      | Some r -> check_red "ifq_red_ecn" r
      | None -> ())
  | topo ->
      let m = chain topo in
      if m.segments < 1 then
        err "Spec.build: segments %d must be >= 1" m.segments;
      (* Right host i has id 100 + i: past 100 pairs it would share an
         id with a left host. *)
      if m.m_pairs < 1 || m.m_pairs > 100 then
        err "Spec.build: pairs %d must be within 1..100" m.m_pairs;
      if m.cross_pairs < 0 || m.cross_pairs > m.segments - 1 then
        err "Spec.build: cross_pairs %d must be within 0..segments-1"
          m.cross_pairs;
      check_positive_rate "access rate" m.m_access_rate;
      check_positive_rate "bottleneck rate" m.m_bottleneck_rate;
      check_positive_rate "core rate" m.core_rate;
      check_delay "access_delay" m.m_access_delay;
      check_delay "bottleneck_delay" m.m_bottleneck_delay;
      check_delay "core_delay" m.core_delay;
      if m.m_buffer_packets < 1 then
        err "Spec.build: buffer_packets %d must be >= 1" m.m_buffer_packets;
      if m.m_host_ifq_capacity < 1 then
        err "Spec.build: ifq_capacity %d must be >= 1" m.m_host_ifq_capacity;
      match m.m_red with
      | Some r -> check_red "red" r
      | None -> ());
  check_faults "forward" t.faults.forward;
  check_faults "reverse" t.faults.reverse;
  if t.domains < 1 then err "Spec.build: domains %d must be >= 1" t.domains;
  if t.domains > Engine.Pool.max_jobs then
    err "Spec.build: domains %d must be <= %d" t.domains Engine.Pool.max_jobs;
  if t.trace_capacity < 1 then
    err "Spec.build: trace_capacity %d must be >= 1" t.trace_capacity;
  (* Partitioned runs keep every piece of shared mutable state off the
     table: no global trace ring, no fault models straddling the cut,
     and no wheel-owning or receiver-spawning workloads. Everything
     else — and everything at [domains = 1] — is unrestricted. *)
  if t.domains > 1 then begin
    (match t.topology with
    | Duplex d ->
        if not (Sim.Time.is_positive d.one_way_delay) then
          err
            "Spec.build: domains > 1 needs one_way_delay > 0 (the \
             cross-partition lookahead)"
    | Dumbbell _ ->
        err
          "Spec.build: a dumbbell has no partition cut; use duplex or \
           dumbbell_of_dumbbells for domains > 1"
    | Multi_dumbbell m ->
        if m.segments < 2 then
          err
            "Spec.build: domains > 1 needs >= 2 segments (one partition \
             per segment)";
        if not (Sim.Time.is_positive m.core_delay) then
          err
            "Spec.build: domains > 1 needs core_delay > 0 (the \
             cross-partition lookahead)");
    if t.record_trace then
      err
        "Spec.build: record_trace is not supported with domains > 1 (the \
         event ring is one global order)";
    if
      t.faults.forward <> Fm.passthrough || t.faults.reverse <> Fm.passthrough
    then err "Spec.build: fault profiles are not supported with domains > 1";
    List.iteri
      (fun i f ->
        match f.workload with
        | Short_flows _ ->
            err
              "Spec.build: flow %d: short_flows is not supported with \
               domains > 1"
              i
        | Many_flows _ | Bulk _ | Chunked _ | Cbr _ | On_off _ -> ())
      t.flows
  end;
  List.iteri (validate_flow ~topology:t.topology) t.flows;
  (* One many_flows flow per spec: the sharded engine array, its
     aggregate collection and the checkpoint image all assume a single
     logical flow population. (Each shard owns its own timer wheel;
     schedulers carry any number of wheels.) *)
  let many =
    List.filter
      (fun f -> match f.workload with Many_flows _ -> true | _ -> false)
      t.flows
  in
  if List.length many > 1 then
    err "Spec.build: at most one many_flows flow per spec";
  (* Every shard needs at least one flow. *)
  match many with
  | [ { workload = Many_flows { flows; _ }; _ } ] ->
      let shards = shards_of t.topology in
      if flows < shards then
        err
          "Spec.build: many_flows needs flows >= segments (%d < %d): the \
           population is sharded into one sub-population per segment"
          flows shards
  | _ -> ()
