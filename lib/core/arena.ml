(* The head-to-head arena: every named congestion-control bundle
   crossed with a fixed set of Spec scenarios, scored into one league
   table. Each cell is an independent Spec.run — the pool fans the whole
   matrix out over domains and Pool.map's order preservation keeps every
   result identical at any worker count. *)

module Fm = Netsim.Fault_model

type scenario = {
  sname : string;
  sdoc : string;
  make : duration:Sim.Time.t -> policy:string -> Spec.t;
}

let flow_with ~policy ?(pair = 0) ?(start_at = Sim.Time.zero) () =
  {
    Spec.default_flow with
    Spec.policy = Some policy;
    pair;
    start_at;
  }

(* One seed for every cell, so each policy meets the same network,
   faults included. *)
let base ~name ~duration topology flows faults =
  {
    Spec.default with
    Spec.name;
    seed = 1;
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
      make =
        (fun ~duration ~policy ->
          base
            ~name:(Printf.sprintf "paper-path__%s" policy)
            ~duration
            (Spec.Duplex Spec.default_duplex)
            [ flow_with ~policy () ]
            no_faults);
    };
    {
      sname = "lossy-wan";
      sdoc = "120 ms RTT duplex with 0.5% random forward loss";
      make =
        (fun ~duration ~policy ->
          base
            ~name:(Printf.sprintf "lossy-wan__%s" policy)
            ~duration
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
      make =
        (fun ~duration ~policy ->
          base
            ~name:(Printf.sprintf "shared-bottleneck__%s" policy)
            ~duration
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
      make =
        (fun ~duration ~policy ->
          base
            ~name:(Printf.sprintf "red-ecn__%s" policy)
            ~duration
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
      make =
        (fun ~duration ~policy ->
          base
            ~name:(Printf.sprintf "parallel-streams__%s" policy)
            ~duration
            (Spec.Duplex Spec.default_duplex)
            (List.init 3 (fun _ -> flow_with ~policy ()))
            no_faults);
    };
    {
      sname = "chaos-bursty";
      sdoc =
        "duplex under Gilbert-Elliott burst loss, a 400 ms outage and \
         ACK-path reordering";
      make =
        (fun ~duration ~policy ->
          base
            ~name:(Printf.sprintf "chaos-bursty__%s" policy)
            ~duration
            (Spec.Duplex Spec.default_duplex)
            [ flow_with ~policy () ]
            chaos_faults);
    };
  ]

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

type standing = {
  lpolicy : string;
  mean_utilization : float;
  mean_jain : float;
  total_stalls : int;
  total_retransmits : int;
  total_timeouts : int;
  score : float;
}

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

let run ?pool ~duration () =
  let cells =
    List.concat_map
      (fun policy -> List.map (fun s -> (policy, s)) scenarios)
      Tcp.Policy.names
  in
  List.map2
    (fun (policy, s) o -> cell_of_outcome ~policy ~scenario:s.sname o)
    cells
    (Spec.run_batch ?pool
       (List.map (fun (policy, s) -> s.make ~duration ~policy) cells))

let league cells =
  let standings =
    List.map
      (fun policy ->
        let mine = List.filter (fun c -> c.policy = policy) cells in
        let n = float_of_int (List.length mine) in
        let mean f = List.fold_left (fun acc c -> acc +. f c) 0. mine /. n in
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
      (List.sort_uniq String.compare (List.map (fun c -> c.policy) cells))
  in
  List.stable_sort
    (fun a b ->
      match Float.compare b.score a.score with
      | 0 -> String.compare a.lpolicy b.lpolicy
      | c -> c)
    standings
