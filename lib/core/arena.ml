(* The head-to-head arena: every named congestion-control bundle
   crossed with a fixed set of Spec scenarios, scored into one league
   table. Each cell is an independent Spec.run — the pool fans the whole
   matrix out over domains and Pool.map's order preservation keeps every
   artifact byte-identical at any worker count. *)

module Json = Report.Json
module Fm = Netsim.Fault_model

type scenario = {
  sname : string;
  sdoc : string;
  chaos : bool;
  make : duration:Sim.Time.t -> seed:int -> policy:string -> Spec.t;
}

let flow_with ~policy ?(pair = 0) ?(start_at = Sim.Time.zero) () =
  {
    Spec.default_flow with
    Spec.policy = Some policy;
    pair;
    start_at;
  }

let base ~name ~duration ~seed topology flows faults =
  {
    Spec.default with
    Spec.name;
    seed;
    duration;
    record_series = false;
    topology;
    flows;
    faults;
  }

let no_faults = { Spec.forward = Fm.passthrough; reverse = Fm.passthrough }

(* The Gilbert–Elliott burst profile and the mid-run outage mirror the
   chaos harness's "bursty WAN" case family; the reverse-path reordering
   stresses the ACK clock. *)
let chaos_faults =
  {
    Spec.forward =
      {
        Fm.passthrough with
        Fm.ge =
          Some
            { Fm.p_gb = 0.01; p_bg = 0.25; loss_good = 0.0005; loss_bad = 0.2 };
        schedule =
          [ Fm.Outage { start = Sim.Time.sec 6; stop = Sim.Time.ms 6400 } ];
      };
    reverse =
      {
        Fm.passthrough with
        Fm.reorder = Some { Fm.prob = 0.02; max_extra = Sim.Time.ms 2 };
      };
  }

let scenarios =
  [
    {
      sname = "paper-path";
      sdoc = "the paper's 100 Mbit/s / 60 ms RTT duplex, one bulk flow";
      chaos = false;
      make =
        (fun ~duration ~seed ~policy ->
          base
            ~name:(Printf.sprintf "paper-path__%s" policy)
            ~duration ~seed
            (Spec.Duplex Spec.default_duplex)
            [ flow_with ~policy () ]
            no_faults);
    };
    {
      sname = "lossy-wan";
      sdoc = "120 ms RTT duplex with 0.5% random forward loss";
      chaos = false;
      make =
        (fun ~duration ~seed ~policy ->
          base
            ~name:(Printf.sprintf "lossy-wan__%s" policy)
            ~duration ~seed
            (Spec.Duplex
               {
                 Spec.default_duplex with
                 Spec.one_way_delay = Sim.Time.ms 60;
                 loss_rate = 0.005;
               })
            [ flow_with ~policy () ]
            no_faults);
    };
    {
      sname = "shared-bottleneck";
      sdoc = "dumbbell, two same-policy flows staggered 1 s (fairness)";
      chaos = false;
      make =
        (fun ~duration ~seed ~policy ->
          base
            ~name:(Printf.sprintf "shared-bottleneck__%s" policy)
            ~duration ~seed
            (Spec.Dumbbell
               {
                 Spec.pairs = 2;
                 access_rate = Sim.Units.mbps 100.;
                 access_delay = Sim.Time.ms 1;
                 bottleneck_rate = Sim.Units.mbps 100.;
                 bottleneck_delay = Sim.Time.ms 28;
                 buffer_packets = 250;
                 host_ifq_capacity = 100;
                 red = None;
               })
            [
              flow_with ~policy ();
              flow_with ~policy ~pair:1 ~start_at:(Sim.Time.sec 1) ();
            ]
            no_faults);
    };
    {
      sname = "red-ecn";
      sdoc =
        "paper duplex with RED+ECN marking at the sender IFQ (ECE/CWR \
         reaction path)";
      chaos = false;
      make =
        (fun ~duration ~seed ~policy ->
          base
            ~name:(Printf.sprintf "red-ecn__%s" policy)
            ~duration ~seed
            (Spec.Duplex
               {
                 Spec.default_duplex with
                 Spec.ifq_red_ecn = Some Netsim.Queue_disc.default_red;
               })
            [ flow_with ~policy () ]
            no_faults);
    };
    {
      sname = "parallel-streams";
      sdoc = "three same-policy streams sharing the paper duplex (E11 shape)";
      chaos = false;
      make =
        (fun ~duration ~seed ~policy ->
          base
            ~name:(Printf.sprintf "parallel-streams__%s" policy)
            ~duration ~seed
            (Spec.Duplex Spec.default_duplex)
            (List.init 3 (fun _ -> flow_with ~policy ()))
            no_faults);
    };
    {
      sname = "chaos-bursty";
      sdoc =
        "duplex under Gilbert-Elliott burst loss, a 400 ms outage and \
         ACK-path reordering";
      chaos = true;
      make =
        (fun ~duration ~seed ~policy ->
          base
            ~name:(Printf.sprintf "chaos-bursty__%s" policy)
            ~duration ~seed
            (Spec.Duplex Spec.default_duplex)
            [ flow_with ~policy () ]
            chaos_faults);
    };
  ]

let scenario_names = List.map (fun s -> s.sname) scenarios

type cell = {
  policy : string;
  scenario : string;
  goodput_mbps : float;
  utilization : float;
  jain_index : float;
  send_stalls : int;
  congestion_signals : int;
  retransmits : int;
  timeouts : int;
}

type table = {
  policies : string list;
  scenarios_run : string list;
  cells : cell list;  (* policy-major: all scenarios of policy 1, ... *)
}

type standing = {
  lpolicy : string;
  mean_utilization : float;
  mean_jain : float;
  total_stalls : int;
  total_retransmits : int;
  total_timeouts : int;
  score : float;
}

let find_scenarios = function
  | None -> scenarios
  | Some names ->
      List.map
        (fun n ->
          match List.find_opt (fun s -> s.sname = n) scenarios with
          | Some s -> s
          | None ->
              invalid_arg
                (Printf.sprintf "Arena.run: unknown scenario %S (have: %s)" n
                   (String.concat ", " scenario_names)))
        names

let cell_of_outcome ~policy ~scenario (o : Spec.outcome) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 o.Spec.results in
  let sum_f f = List.fold_left (fun acc r -> acc +. f r) 0. o.Spec.results in
  {
    policy;
    scenario;
    goodput_mbps = o.Spec.path.Spec.aggregate_goodput_mbps;
    utilization = sum_f (fun r -> r.Spec.utilization);
    jain_index = o.Spec.path.Spec.jain_index;
    send_stalls = sum (fun r -> r.Spec.send_stalls);
    congestion_signals = sum (fun r -> r.Spec.congestion_signals);
    retransmits = sum (fun r -> r.Spec.retransmits);
    timeouts = sum (fun r -> r.Spec.timeouts);
  }

let run_collect ?pool ?policies ?scenarios:scenario_filter
    ?(duration = Sim.Time.sec 15) ?(seed = 1) () =
  let policies =
    match policies with Some ps -> ps | None -> Tcp.Policy.names
  in
  let chosen = find_scenarios scenario_filter in
  let cells_in =
    List.concat_map
      (fun policy ->
        List.map
          (fun s -> (policy, s.sname, s.make ~duration ~seed ~policy))
          chosen)
      policies
  in
  let verdicts =
    Spec.run_batch_collect ?pool (List.map (fun (_, _, s) -> s) cells_in)
  in
  let cells, failures =
    List.fold_left2
      (fun (cells, failures) (policy, scenario, _) verdict ->
        match verdict with
        | Ok o -> (cell_of_outcome ~policy ~scenario o :: cells, failures)
        | Error f -> (cells, f :: failures))
      ([], []) cells_in verdicts
  in
  ( {
      policies;
      scenarios_run = List.map (fun s -> s.sname) chosen;
      cells = List.rev cells;
    },
    List.rev failures )

let run ?pool ?policies ?scenarios ?duration ?seed () =
  match run_collect ?pool ?policies ?scenarios ?duration ?seed () with
  | table, [] -> table
  | _, { Engine.Pool.flabel; fexn; fbacktrace } :: _ ->
      raise
        (Engine.Pool.Task_failed
           { label = flabel; exn = fexn; backtrace = fbacktrace })

let league t =
  let standings =
    List.map
      (fun policy ->
        let mine = List.filter (fun c -> c.policy = policy) t.cells in
        let n = float_of_int (List.length mine) in
        let mean f =
          if mine = [] then 0.
          else List.fold_left (fun acc c -> acc +. f c) 0. mine /. n
        in
        let total f = List.fold_left (fun acc c -> acc + f c) 0 mine in
        let mean_utilization = mean (fun c -> c.utilization) in
        let mean_jain = mean (fun c -> c.jain_index) in
        {
          lpolicy = policy;
          mean_utilization;
          mean_jain;
          total_stalls = total (fun c -> c.send_stalls);
          total_retransmits = total (fun c -> c.retransmits);
          total_timeouts = total (fun c -> c.timeouts);
          score = mean_utilization *. mean_jain;
        })
      t.policies
  in
  List.stable_sort
    (fun a b ->
      match Float.compare b.score a.score with
      | 0 -> String.compare a.lpolicy b.lpolicy
      | c -> c)
    standings

let csv_header =
  "policy,scenario,goodput_mbps,utilization,jain_index,send_stalls,\
   congestion_signals,retransmits,timeouts"

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%s,%s,%d,%d,%d,%d\n" c.policy c.scenario
           (Report.Csv.cell c.goodput_mbps)
           (Report.Csv.cell c.utilization)
           (Report.Csv.cell c.jain_index)
           c.send_stalls c.congestion_signals c.retransmits c.timeouts))
    t.cells;
  Buffer.contents buf

let cell_to_json c =
  Json.Obj
    [
      ("policy", Json.String c.policy);
      ("scenario", Json.String c.scenario);
      ("goodput_mbps", Json.Number c.goodput_mbps);
      ("utilization", Json.Number c.utilization);
      ("jain_index", Json.Number c.jain_index);
      ("send_stalls", Json.Number (float_of_int c.send_stalls));
      ("congestion_signals", Json.Number (float_of_int c.congestion_signals));
      ("retransmits", Json.Number (float_of_int c.retransmits));
      ("timeouts", Json.Number (float_of_int c.timeouts));
    ]

let standing_to_json s =
  Json.Obj
    [
      ("policy", Json.String s.lpolicy);
      ("mean_utilization", Json.Number s.mean_utilization);
      ("mean_jain", Json.Number s.mean_jain);
      ("total_stalls", Json.Number (float_of_int s.total_stalls));
      ("total_retransmits", Json.Number (float_of_int s.total_retransmits));
      ("total_timeouts", Json.Number (float_of_int s.total_timeouts));
      ("score", Json.Number s.score);
    ]

let to_json t =
  Json.Obj
    [
      ("policies", Json.List (List.map (fun p -> Json.String p) t.policies));
      ( "scenarios",
        Json.List (List.map (fun s -> Json.String s) t.scenarios_run) );
      ("cells", Json.List (List.map cell_to_json t.cells));
      ("league", Json.List (List.map standing_to_json (league t)));
    ]

let render t =
  let cells_table =
    Report.Table.render
      ~aligns:
        [ Report.Table.Left; Left; Right; Right; Right; Right; Right; Right;
          Right ]
      ~headers:
        [ "policy"; "scenario"; "goodput"; "util"; "jain"; "stalls"; "cong";
          "retx"; "rto" ]
      ~rows:
        (List.map
           (fun c ->
             [
               c.policy;
               c.scenario;
               Report.Table.cell_f c.goodput_mbps;
               Report.Table.cell_f ~decimals:3 c.utilization;
               Report.Table.cell_f ~decimals:4 c.jain_index;
               Report.Table.cell_i c.send_stalls;
               Report.Table.cell_i c.congestion_signals;
               Report.Table.cell_i c.retransmits;
               Report.Table.cell_i c.timeouts;
             ])
           t.cells)
      ()
  in
  let league_table =
    Report.Table.render
      ~aligns:
        [ Report.Table.Right; Left; Right; Right; Right; Right; Right; Right ]
      ~headers:
        [ "#"; "policy"; "score"; "mean util"; "mean jain"; "stalls"; "retx";
          "rto" ]
      ~rows:
        (List.mapi
           (fun i s ->
             [
               string_of_int (i + 1);
               s.lpolicy;
               Report.Table.cell_f ~decimals:4 s.score;
               Report.Table.cell_f ~decimals:3 s.mean_utilization;
               Report.Table.cell_f ~decimals:4 s.mean_jain;
               Report.Table.cell_i s.total_stalls;
               Report.Table.cell_i s.total_retransmits;
               Report.Table.cell_i s.total_timeouts;
             ])
           (league t))
      ()
  in
  cells_table ^ "\nleague (score = mean utilization x mean Jain):\n"
  ^ league_table
