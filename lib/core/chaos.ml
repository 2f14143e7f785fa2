(* Chaos harness: randomized fault schedules driven through whole
   scenarios, with invariant checking and deterministic failure-replay
   artifacts.

   A case is pure data — a {!Spec.t} plus the harness's own invariant
   knobs; running it is a pure function of that data, so an outcome —
   including its canonical trace — is byte-identical under any --jobs
   value and on replay from a serialized artifact. *)

module Json = Report.Json
module Fm = Netsim.Fault_model

type case = {
  spec : Spec.t;
  progress_rtos : int;
  check_completion : bool;
}

let make_case ?(name = "chaos") ?(seed = 1) ?(variant = "standard")
    ?(rate = Sim.Units.mbps 100.) ?(one_way_delay = Sim.Time.ms 30)
    ?(ifq_capacity = 100) ?(duration = Sim.Time.sec 20)
    ?(bytes = Some (400 * 1460)) ?(max_rto = Sim.Time.sec 2)
    ?(progress_rtos = 4) ?(check_completion = true) ?(forward = Fm.passthrough)
    ?(reverse = Fm.passthrough) () =
  {
    spec =
      {
        Spec.name;
        seed;
        duration;
        sample_period = Sim.Time.ms 250;
        record_series = false;
        record_trace = false;
        trace_capacity = 65536;
        domains = 1;
        topology =
          Spec.Duplex
            {
              Spec.rate;
              one_way_delay;
              ifq_capacity;
              loss_rate = 0.;
              ifq_red_ecn = None;
            };
        flows =
          [
            {
              Spec.default_flow with
              Spec.label = Some name;
              slow_start = variant;
              max_rto = Some max_rto;
              workload = Spec.Bulk { bytes };
            };
          ];
        faults = { Spec.forward; reverse };
      };
    progress_rtos;
    check_completion;
  }

let default_case = make_case ()

let first_flow c =
  match c.spec.Spec.flows with
  | f :: _ -> f
  | [] -> invalid_arg "Chaos: case spec has no flows"

let adjust ?variant ?duration ?check_completion c =
  let c =
    match variant with
    | None -> c
    | Some v ->
        let f = { (first_flow c) with Spec.slow_start = v } in
        { c with spec = { c.spec with Spec.flows = [ f ] } }
  in
  let c =
    match duration with
    | None -> c
    | Some d -> { c with spec = { c.spec with Spec.duration = d } }
  in
  match check_completion with
  | None -> c
  | Some b -> { c with check_completion = b }

let case_name c = c.spec.Spec.name

let case_max_rto c =
  match (first_flow c).Spec.max_rto with
  | Some rto -> rto
  | None -> Tcp.Config.default.Tcp.Config.max_rto

let case_bytes c =
  match (first_flow c).Spec.workload with
  | Spec.Bulk { bytes } -> bytes
  | _ -> None

type outcome = {
  case : case;
  completed : bool;
  bytes_acked : int;
  timeouts : int;
  retransmits : int;
  violations : string list;
  trace : string;
}

let passed o = o.violations = []

(* --- JSON serialization ---------------------------------------------- *)

let case_to_json c =
  Json.Obj
    [
      ("spec", Spec.to_json c.spec);
      ("progress_rtos", Json.Number (float_of_int c.progress_rtos));
      ("check_completion", Json.Bool c.check_completion);
    ]

let ( let* ) r f = Result.bind r f

let field key j =
  match Json.member key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let str key j =
  let* v = field key j in
  match Json.string_value v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S is not a string" key)

(* Any key of [j] outside [keys] is refused by name; keys that start
   with _ are free, as in a spec. *)
let only_keys keys j =
  match j with
  | Json.Obj fields -> (
      match
        List.find_opt
          (fun (k, _) ->
            not (String.starts_with ~prefix:"_" k || List.mem k keys))
          fields
      with
      | Some (k, _) ->
          Error
            (Printf.sprintf "unknown field %S (known: %s)" k
               (String.concat ", " keys))
      | None -> Ok ())
  | _ -> Error "expected an object"

let case_of_json j =
  let* () = only_keys [ "spec"; "progress_rtos"; "check_completion" ] j in
  let* spec_json = field "spec" j in
  let* spec = Spec.of_json spec_json in
  let* progress_rtos =
    match Json.member "progress_rtos" j with
    | None -> Ok default_case.progress_rtos
    | Some v -> (
        match Json.number v with
        | Some f when Float.is_integer f && Float.abs f <= 0x1p53 ->
            Ok (int_of_float f)
        | _ -> Error "field \"progress_rtos\" is not an integer")
  in
  let* check_completion =
    match Json.member "check_completion" j with
    | None -> Ok default_case.check_completion
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "field \"check_completion\" is not a bool"
  in
  Ok { spec; progress_rtos; check_completion }

(* --- running one case ------------------------------------------------- *)

let run_case case =
  let spec = case.spec in
  let built = Spec.build spec in
  let sched = Spec.sched built in
  let sender =
    match Spec.tcp_senders built with
    | s :: _ -> s
    | [] -> invalid_arg "Chaos.run_case: case spec has no TCP flow at t=0"
  in
  let mss = float_of_int Tcp.Config.default.Tcp.Config.mss in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun msg -> violations := msg :: !violations) fmt
  in
  let trace = Buffer.create 4096 in
  Buffer.add_string trace
    "t_ms,bytes_acked,cwnd_seg,flight,timeouts,retx,stalls,backoff\n";
  (* Monotonicity watchdogs for the web100-style counters. *)
  let watch = [| 0; 0; 0; 0; 0 |] in
  let watch_names =
    [| "bytes_acked"; "bytes_sent"; "timeouts"; "retransmits"; "send_stalls" |]
  in
  let sample () =
    let now = Sim.Scheduler.now sched in
    let cwnd = Tcp.Sender.cwnd sender in
    if not (Float.is_finite cwnd && cwnd > 0.) then
      violate "t=%.3fs: cwnd not a positive finite value (%g)"
        (Sim.Time.to_sec now) cwnd;
    let current =
      [|
        Tcp.Sender.bytes_acked sender;
        Tcp.Sender.bytes_sent sender;
        Tcp.Sender.timeouts sender;
        Tcp.Sender.retransmits sender;
        Tcp.Sender.send_stalls sender;
      |]
    in
    Array.iteri
      (fun i v ->
        if v < watch.(i) then
          violate "t=%.3fs: counter %s went backwards (%d -> %d)"
            (Sim.Time.to_sec now) watch_names.(i) watch.(i) v;
        watch.(i) <- v)
      current;
    Buffer.add_string trace
      (Printf.sprintf "%.1f,%d,%.3f,%d,%d,%d,%d,%d\n" (Sim.Time.to_ms now)
         current.(0)
         (cwnd /. mss)
         (Tcp.Sender.flight sender)
         current.(2) current.(3) current.(4)
         (Tcp.Sender.rto_backoff sender))
  in
  ignore (Sim.Scheduler.every sched spec.Spec.sample_period sample);
  (* Progress invariant: within [progress_rtos · max_rto] of the last
     outage ending, the connection must have made forward progress (or
     already be complete) — a stalled-forever sender after a blackout is
     exactly the regression class this harness exists to catch. *)
  let fwd, rev = Spec.fault_models built in
  let bytes = case_bytes case in
  let max_rto = case_max_rto case in
  let last_outage_end =
    match
      ( Option.bind fwd Fm.last_outage_end,
        Option.bind rev Fm.last_outage_end )
    with
    | None, None -> None
    | Some a, None -> Some a
    | None, Some b -> Some b
    | Some a, Some b -> Some (Sim.Time.max a b)
  in
  (match last_outage_end with
  | None -> ()
  | Some stop ->
      let window = Sim.Time.mul_int max_rto case.progress_rtos in
      let deadline = Sim.Time.add stop window in
      if Sim.Time.(deadline <= spec.Spec.duration) then
        ignore
          (Sim.Scheduler.at sched stop (fun () ->
               let base = Tcp.Sender.bytes_acked sender in
               ignore
                 (Sim.Scheduler.at sched deadline (fun () ->
                      let now_acked = Tcp.Sender.bytes_acked sender in
                      let complete =
                        match bytes with
                        | Some b -> now_acked >= b
                        | None -> false
                      in
                      if (not complete) && now_acked <= base then
                        violate
                          "no progress within %d RTO (%.1fs) of outage \
                           ending at t=%.3fs (stuck at %d bytes)"
                          case.progress_rtos (Sim.Time.to_sec window)
                          (Sim.Time.to_sec stop) base)))));
  ignore (Spec.execute built);
  (* Packet conservation, per direction: every NIC transmit is exactly
     one of delivered / lost / still flying, net of fault duplicates.
     Only meaningful on a duplex path, where the measured hosts sit
     directly on the measured links (a dumbbell has routers between). *)
  (match spec.Spec.topology with
  | Spec.Dumbbell _ | Spec.Multi_dumbbell _ -> ()
  | Spec.Duplex _ ->
      let conservation label nic link =
        let tx = Netsim.Nic.tx_packets nic in
        let accounted =
          Netsim.Link.delivered link + Netsim.Link.lost link
          + Netsim.Link.in_flight link
          - Netsim.Link.duplicated link
        in
        if tx <> accounted then
          violate
            "%s packet conservation broken: tx=%d but delivered=%d lost=%d \
             in_flight=%d duplicated=%d"
            label tx (Netsim.Link.delivered link) (Netsim.Link.lost link)
            (Netsim.Link.in_flight link)
            (Netsim.Link.duplicated link)
      in
      conservation "forward"
        (Netsim.Host.nic (Spec.src_host built ~pair:0))
        (Spec.forward_link built);
      conservation "reverse"
        (Netsim.Host.nic (Spec.dst_host built ~pair:0))
        (Spec.reverse_link built);
      let delivered_fwd = Netsim.Link.delivered (Spec.forward_link built) in
      let rx = Netsim.Host.rx_packets (Spec.dst_host built ~pair:0) in
      if delivered_fwd <> rx then
        violate
          "delivery accounting broken: link delivered %d, host received %d"
          delivered_fwd rx);
  let bytes_acked = Tcp.Sender.bytes_acked sender in
  let completed =
    match bytes with Some b -> bytes_acked >= b | None -> false
  in
  if case.check_completion && not completed then
    violate "transfer incomplete at t=%.1fs: %d of %s bytes acked"
      (Sim.Time.to_sec spec.Spec.duration)
      bytes_acked
      (match bytes with Some b -> string_of_int b | None -> "unbounded");
  let fm_count f = match fwd with Some m -> f m | None -> 0 in
  Buffer.add_string trace
    (Printf.sprintf "summary,%d,%d,%d,%d,%d,%d,%d,%d\n" bytes_acked
       (Tcp.Sender.timeouts sender)
       (Tcp.Sender.retransmits sender)
       (Tcp.Sender.send_stalls sender)
       (fm_count Fm.random_drops) (fm_count Fm.outage_drops)
       (fm_count Fm.duplicates) (fm_count Fm.reordered));
  {
    case;
    completed;
    bytes_acked;
    timeouts = Tcp.Sender.timeouts sender;
    retransmits = Tcp.Sender.retransmits sender;
    violations = List.rev !violations;
    trace = Buffer.contents trace;
  }

(* A raising case must not poison a sweep: capture the exception as a
   violation so the batch drains and every other cell still reports. *)
let run_case_captured case =
  try run_case case
  with e ->
    {
      case;
      completed = false;
      bytes_acked = 0;
      timeouts = 0;
      retransmits = 0;
      violations = [ Printf.sprintf "exception: %s" (Printexc.to_string e) ];
      trace = "";
    }

let run_sweep ?pool cases =
  match pool with
  | None -> List.map run_case_captured cases
  | Some pool ->
      (* run_case_captured never raises, but collect anyway so an
         escape (OOM mid-capture, stack overflow) costs one cell and
         not the sweep. *)
      Engine.Pool.map_collect pool ~label:case_name ~f:run_case_captured
        cases
      |> List.map2
           (fun case -> function
             | Ok outcome -> outcome
             | Error { Engine.Pool.fexn; _ } ->
                 {
                   case;
                   completed = false;
                   bytes_acked = 0;
                   timeouts = 0;
                   retransmits = 0;
                   violations =
                     [
                       Printf.sprintf "exception: %s"
                         (Printexc.to_string fexn);
                     ];
                   trace = "";
                 })
           cases

(* --- random schedule generation --------------------------------------- *)

let variants = [| "standard"; "restricted" |]

let random_case ~root ~index =
  let seed = Sim.Rng.derive_seed ~root ~stream:index in
  let rng = Sim.Rng.of_seed seed in
  let owd = Sim.Time.ms 30 in
  let variant = variants.(index mod Array.length variants) in
  let maybe p f = if Sim.Rng.float rng < p then Some (f ()) else None in
  let ge =
    maybe 0.7 (fun () ->
        {
          Fm.p_gb = Sim.Rng.uniform rng ~lo:0.005 ~hi:0.05;
          p_bg = Sim.Rng.uniform rng ~lo:0.1 ~hi:0.5;
          loss_good = Sim.Rng.uniform rng ~lo:0. ~hi:0.005;
          loss_bad = Sim.Rng.uniform rng ~lo:0.05 ~hi:0.5;
        })
  in
  let reorder =
    maybe 0.5 (fun () ->
        {
          Fm.prob = Sim.Rng.uniform rng ~lo:0.005 ~hi:0.05;
          max_extra = Sim.Time.scale owd (Sim.Rng.uniform rng ~lo:0.5 ~hi:4.);
        })
  in
  let duplicate =
    maybe 0.4 (fun () ->
        {
          Fm.prob = Sim.Rng.uniform rng ~lo:0.002 ~hi:0.02;
          max_extra = Sim.Time.scale owd (Sim.Rng.uniform rng ~lo:0. ~hi:2.);
        })
  in
  let outages =
    List.init (Sim.Rng.int rng 3) (fun _ ->
        let start = Sim.Time.of_sec (Sim.Rng.uniform rng ~lo:1. ~hi:8.) in
        let len = Sim.Time.of_sec (Sim.Rng.uniform rng ~lo:0.2 ~hi:2.5) in
        Fm.Outage { start; stop = Sim.Time.add start len })
  in
  let steps =
    List.init (Sim.Rng.int rng 2) (fun _ ->
        Fm.Delay_step
          {
            at = Sim.Time.of_sec (Sim.Rng.uniform rng ~lo:1. ~hi:10.);
            extra = Sim.Time.scale owd (Sim.Rng.uniform rng ~lo:0. ~hi:2.);
          })
  in
  let forward = { Fm.ge; reorder; duplicate; schedule = outages @ steps } in
  (* Occasionally impair the ACK path too, more lightly. *)
  let reverse =
    if Sim.Rng.float rng < 0.3 then
      {
        Fm.passthrough with
        Fm.reorder =
          Some
            {
              Fm.prob = Sim.Rng.uniform rng ~lo:0.005 ~hi:0.03;
              max_extra =
                Sim.Time.scale owd (Sim.Rng.uniform rng ~lo:0.5 ~hi:2.);
            };
      }
    else Fm.passthrough
  in
  make_case
    ~name:(Printf.sprintf "chaos-%d-%03d-%s" root index variant)
    ~seed ~variant ~forward ~reverse ()

let random_cases ~root n = List.init n (fun i -> random_case ~root ~index:i)

(* --- failure artifacts ------------------------------------------------- *)

let outcome_to_json o =
  Json.Obj
    [
      ("case", case_to_json o.case);
      ("violations", Json.List (List.map (fun v -> Json.String v) o.violations));
      ("completed", Json.Bool o.completed);
      ("bytes_acked", Json.Number (float_of_int o.bytes_acked));
      ("trace", Json.String o.trace);
    ]

(* Case names come from generators or artifacts; keep paths tame. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

(* [Report.Csv.write_string] creates [dir] as needed. *)
let write_failure ~dir outcome =
  let path = Filename.concat dir (sanitize (case_name outcome.case) ^ ".json") in
  Report.Csv.write_string ~path (Json.to_string (outcome_to_json outcome));
  path

let write_failures ~dir outcomes =
  List.filter_map
    (fun o -> if passed o then None else Some (write_failure ~dir o))
    outcomes

type artifact = {
  artifact_case : case;
  artifact_violations : string list;
  artifact_trace : string;
}

let load_artifact path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
      match Json.of_string contents with
      | Error e -> Error e
      | Ok j ->
          let* () =
            only_keys
              [ "case"; "violations"; "completed"; "bytes_acked"; "trace" ]
              j
          in
          let* case_json = field "case" j in
          let* artifact_case = case_of_json case_json in
          let* violations_json = field "violations" j in
          let* artifact_violations =
            match Json.list_value violations_json with
            | None -> Error "field \"violations\" is not a list"
            | Some items -> Ok (List.filter_map Json.string_value items)
          in
          let* artifact_trace = str "trace" j in
          Ok { artifact_case; artifact_violations; artifact_trace })

let replay path =
  let* artifact = load_artifact path in
  let outcome = run_case_captured artifact.artifact_case in
  let identical =
    String.equal outcome.trace artifact.artifact_trace
    && outcome.violations = artifact.artifact_violations
  in
  Ok (outcome, identical)
