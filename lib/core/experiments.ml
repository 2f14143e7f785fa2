(* Each driver builds its independent experiment cells (variant ×
   duration × parameter point) as specs and runs them as tasks on an
   optional Engine pool (default: the pool of one). Cells at
   the same parameter point share one seed (fair variant comparison);
   distinct points get seeds derived with [Sim.Rng.derive_seed] so no
   two cells ever share a random stream. Every cell builds its own
   scheduler and results are looked up by cell key, so parallel output
   is bit-identical to sequential. *)

include Experiment_value

let pmap ?(pool = Engine.Pool.sequential) ~label f xs =
  Engine.Pool.map pool ~label ~f xs

(* One flow on a duplex path (default: the paper's) for [duration]:
   [flow] (default: a saturating bulk transfer) running [slow_start],
   labelled [label] (default: the slow-start name). The spec name adds
   the path, so a failing pool task names its scenario. *)
let one_flow ?label ?(seed = Spec.default.Spec.seed)
    ?(path = Spec.default_duplex) ?(flow = Spec.default_flow) ~duration
    slow_start =
  let label = Option.value label ~default:slow_start in
  {
    Spec.default with
    Spec.name =
      Printf.sprintf "%s (rate=%g Mb/s, rtt=%g ms, ifq=%d, seed=%d, dur=%gs)"
        label
        (Sim.Units.rate_to_mbps path.Spec.rate)
        (2. *. Sim.Time.to_ms path.Spec.one_way_delay)
        path.Spec.ifq_capacity seed (Sim.Time.to_sec duration);
    seed;
    duration;
    topology = Spec.Duplex path;
    flows = [ { flow with Spec.label = Some label; slow_start } ];
  }

(* Run each [(key, spec)] cell as one task and look its flow results up
   by key — aggregation never depends on the cells' positions. *)
let run_cells ?pool cells =
  let outcomes = Spec.run_batch ?pool (List.map snd cells) in
  let table = List.combine (List.map fst cells) outcomes in
  fun key -> (List.assoc key table).Spec.results

(* [run_cells] for one-flow cells: the key's single result. *)
let run_flows ?pool cells =
  let find = run_cells ?pool cells in
  fun key -> List.hd (find key)

(* The results of one-flow cells, in the cells' order. *)
let flows ?pool cells = List.map (run_flows ?pool cells) (List.map fst cells)

(* One cell per variant at each point of a sweep, keyed
   [(point, variant)]; point [i] gets its own derived seed, shared by
   the variants at that point. *)
let sweep ?pool ~variants ~spec points =
  run_flows ?pool
    (List.concat
       (List.mapi
          (fun i point ->
            let seed =
              Sim.Rng.derive_seed ~root:Spec.default.Spec.seed ~stream:i
            in
            List.map (fun ss -> ((point, ss), spec ~seed point ss)) variants)
          points))

let std_rss = [ "standard"; "restricted" ]

(* --- the drivers --------------------------------------------------------- *)

(* Figure 1: cumulative send-stall signals, standard Linux TCP vs the
   proposed scheme. *)
let fig1 ?pool ?(duration = Sim.Time.sec 25) () =
  let rs =
    flows ?pool (List.map (fun ss -> (ss, one_flow ~duration ss)) std_rss)
  in
  result
    ~series:(List.concat_map flow_series rs)
    ~note:
      "paper: standard Linux TCP accumulates a handful of stalls early in\n\
       the transfer; the proposed scheme stays at zero. A saturating flow\n\
       stalls once per window-recovery cycle; the paper's 0..4 staircase\n\
       appears verbatim for a disk-paced application: see e13."
    [ flow_table rs ]

(* §4 text claim: RSS's goodput improvement over standard TCP at 25 s
   and 60 s, or at [duration] alone. *)
let table1 ?pool ?duration () =
  let durations =
    match duration with
    | Some d -> [ d ]
    | None -> [ Sim.Time.sec 25; Sim.Time.sec 60 ]
  in
  let find =
    sweep ?pool ~variants:std_rss
      ~spec:(fun ~seed duration ss -> one_flow ~seed ~duration ss)
      durations
  in
  result
    [
      table
        [
          "duration_s"; "standard_mbps"; "restricted_mbps"; "improvement_pct";
          "standard_stalls"; "restricted_stalls";
        ]
        (List.map
           (fun d ->
             let std = find (d, "standard") and rss = find (d, "restricted") in
             [
               Float (Sim.Time.to_sec d);
               Float std.Spec.goodput_mbps;
               Float rss.Spec.goodput_mbps;
               Float
                 (if std.Spec.goodput_mbps > 0. then
                    100.
                    *. (rss.Spec.goodput_mbps -. std.Spec.goodput_mbps)
                    /. std.Spec.goodput_mbps
                  else 0.);
               Int std.Spec.send_stalls;
               Int rss.Spec.send_stalls;
             ])
           durations);
    ]

(* E2: the slow-start variants on the paper's path. *)
let variants ?pool ?(duration = Sim.Time.sec 25) () =
  result
    [
      flow_table
        (flows ?pool
           (List.map
              (fun ss -> (ss, one_flow ~duration ss))
              [ "standard"; "abc"; "limited"; "hystart"; "restricted" ]));
    ]

(* E3: throughput vs interface-queue size. *)
let ifq_sweep ?pool ?(duration = Sim.Time.sec 20) () =
  let sizes = [ 25; 50; 100; 200; 400; 800 ] in
  let find =
    sweep ?pool ~variants:std_rss
      ~spec:(fun ~seed size ss ->
        one_flow ~seed
          ~path:{ Spec.default_duplex with Spec.ifq_capacity = size }
          ~duration ss)
      sizes
  in
  result
    ~note:
      "note: growing the soft buffers (paper §2) narrows but never closes\n\
       the gap, while memory cost rises linearly."
    [ sweep_table "ifq_packets" find ~variants:std_rss sizes ]

let rtts_ms = [ 10; 30; 60; 120; 200 ]

(* The paper path at round-trip time [rtt] ms. *)
let rtt_path rtt =
  { Spec.default_duplex with Spec.one_way_delay = Sim.Time.ms (rtt / 2) }

let rtt_sweep ?pool ~duration variants =
  let find =
    sweep ?pool ~variants
      ~spec:(fun ~seed rtt ss ->
        one_flow ~seed ~path:(rtt_path rtt) ~duration ss)
      rtts_ms
  in
  sweep_table "rtt_ms" find ~variants rtts_ms

(* E4: throughput vs round-trip time (BDP scaling). *)
let rtt_scaling ?pool ?(duration = Sim.Time.sec 20) () =
  result [ rtt_sweep ?pool ~duration std_rss ]

(* E5: one flow crossing a dumbbell whose bottleneck is a router port
   with a BDP/4 buffer; the sender's own NIC is 1 Gbit/s so the
   slow-start burst lands on the router queue, outside RSS's sensor. *)
let burst_loss_row ~seed ~rate_mbps ~slow_start_name ~duration =
  let bottleneck_rate = Sim.Units.mbps rate_mbps in
  let rtt = Sim.Time.ms 60 in
  let bdp = Sim.Units.bdp_packets bottleneck_rate ~rtt ~packet_bytes:1500 in
  let buffer_packets = Stdlib.max 10 (int_of_float (bdp /. 4.)) in
  let spec =
    {
      Spec.default with
      Spec.name = Printf.sprintf "e5-%s" slow_start_name;
      seed;
      duration;
      record_series = false;
      topology =
        Spec.Dumbbell
          {
            Spec.pairs = 1;
            access_rate = Sim.Units.gbps 1.;
            access_delay = Sim.Time.ms 1;
            bottleneck_rate;
            bottleneck_delay = Sim.Time.ms 28;
            buffer_packets;
            host_ifq_capacity = 1000;
            red = None;
          };
      flows =
        [
          {
            Spec.default_flow with
            Spec.label = Some slow_start_name;
            slow_start = slow_start_name;
          };
        ];
    }
  in
  let o = Spec.run spec in
  let r = List.hd o.Spec.results in
  [
    Float rate_mbps;
    Int buffer_packets;
    Text slow_start_name;
    Int o.Spec.path.Spec.router_drops;
    Int r.Spec.retransmits;
    Float r.Spec.goodput_mbps;
  ]

let burst_loss ?pool ?(duration = Sim.Time.sec 15) () =
  let cells =
    List.concat
      (List.mapi
         (fun i rate_mbps ->
           let seed = Sim.Rng.derive_seed ~root:11 ~stream:i in
           List.map
             (fun ss -> (rate_mbps, ss, seed))
             [ "standard"; "limited"; "restricted" ])
         [ 10.; 100.; 622.; 1000. ])
  in
  result
    ~note:
      "note: with a fast NIC the overshoot lands on the router, outside the\n\
       IFQ sensor: RSS controls host soft components, not network queues\n\
       (the paper's stated scope)."
    [
      table
        [
          "bottleneck_mbps"; "buffer_packets"; "slow_start"; "router_drops";
          "retransmits"; "goodput_mbps";
        ]
        (pmap ?pool
           ~label:(fun (rate, ss, seed) ->
             Printf.sprintf "e5 %s @ %g Mb/s (seed=%d)" ss rate seed)
           (fun (rate_mbps, ss, seed) ->
             burst_loss_row ~seed ~rate_mbps ~slow_start_name:ss ~duration)
           cells);
    ]

(* E6: the critical point measured by the in-simulation ZN experiment,
   then RSS under several gain settings. *)
let pid_ablation ?pool ?(duration = Sim.Time.sec 20) () =
  let measured =
    match Calibrate.ultimate_gain () with
    | Ok r -> Ok r.Control.Ziegler_nichols.critical
    | Error e -> Error e
  in
  let base = Tcp.Slow_start.default_restricted_config in
  let default_gains = base.Tcp.Slow_start.gains in
  let scaled k g = { g with Control.Pid.kp = g.Control.Pid.kp *. k } in
  let cells =
    [
      ("paper-rule (default)", default_gains);
      ("kp/4 (sluggish)", scaled 0.25 default_gains);
      ("kp*4 (aggressive)", scaled 4. default_gains);
      ("p-only", Control.Pid.p_only default_gains.Control.Pid.kp);
      ("pi (no derivative)", { default_gains with Control.Pid.td = 0. });
    ]
    @
    match measured with
    | Ok critical ->
        [
          ("zn-classic (measured)", Control.Tuning.zn_pid critical);
          ("paper-rule (measured Kc,Tc)", Control.Tuning.paper_pid critical);
          ("tyreus-luyben (measured)", Control.Tuning.tyreus_luyben critical);
        ]
    | Error _ -> []
  in
  let rs =
    flows ?pool
      (List.map
         (fun (label, gains) ->
           let restricted = Some { base with Tcp.Slow_start.gains } in
           ( label,
             one_flow ~label
               ~flow:{ Spec.default_flow with Spec.restricted }
               ~duration "restricted" ))
         cells)
  in
  result
    [
      table ~name:"critical" [ "kc"; "tc_s"; "error" ]
        [
          (match measured with
          | Ok c ->
              [ Float c.Control.Tuning.kc; Float c.Control.Tuning.tc; Empty ]
          | Error e -> [ Empty; Empty; Text e ]);
        ];
      table
        (flow_columns @ [ "kp"; "ti_s"; "td_s" ])
        (List.map2
           (fun (_, g) r ->
             flow_cells r
             @ [
                 Float g.Control.Pid.kp;
                 Float g.Control.Pid.ti;
                 Float g.Control.Pid.td;
               ])
           cells rs);
    ]

(* E7: reaction-to-stall ablation under standard slow-start. *)
let local_cong_ablation ?pool ?(duration = Sim.Time.sec 25) () =
  result
    [
      flow_table
        (flows ?pool
           (List.map
              (fun local_congestion ->
                let label = Tcp.Local_congestion.to_string local_congestion in
                ( label,
                  one_flow ~label
                    ~flow:{ Spec.default_flow with Spec.local_congestion }
                    ~duration "standard" ))
              [
                Tcp.Local_congestion.Halve;
                Tcp.Local_congestion.Cwr;
                Tcp.Local_congestion.Ignore;
              ]));
    ]

let jain xs =
  let n = float_of_int (List.length xs) in
  let s = List.fold_left ( +. ) 0. xs in
  let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  if s2 <= 0. then 1. else s *. s /. (n *. s2)

(* E8: friendliness — an RSS flow sharing a dumbbell bottleneck with a
   standard Reno flow, and two Reno flows as the control. *)
let fairness_pair ~duration (ss_a, ss_b) =
  let flow i ss_name =
    {
      Spec.default_flow with
      Spec.label = Some ss_name;
      pair = i;
      slow_start = ss_name;
    }
  in
  {
    Spec.default with
    Spec.name = Printf.sprintf "e8-%s-vs-%s" ss_a ss_b;
    seed = 23;
    duration;
    record_series = false;
    topology =
      Spec.Dumbbell
        {
          Spec.pairs = 2;
          access_rate = Sim.Units.mbps 100.;
          access_delay = Sim.Time.ms 1;
          bottleneck_rate = Sim.Units.mbps 100.;
          bottleneck_delay = Sim.Time.ms 28;
          buffer_packets = 250;
          host_ifq_capacity = 100;
          red = None;
        };
    flows = [ flow 0 ss_a; flow 1 ss_b ];
  }

let fairness ?pool ?(duration = Sim.Time.sec 40) () =
  let mixed = ("standard", "restricted")
  and control = ("standard", "standard") in
  let find =
    run_cells ?pool
      (List.map
         (fun cell -> (cell, fairness_pair ~duration cell))
         [ mixed; control ])
  in
  let goodputs key =
    List.map (fun (r : Spec.flow_result) -> r.Spec.goodput_mbps) (find key)
  in
  let mixed_mbps = goodputs mixed in
  result
    [
      table
        [ "reno_mbps"; "restricted_mbps"; "jain_index"; "reno_vs_reno_jain" ]
        [
          [
            Float (List.nth mixed_mbps 0);
            Float (List.nth mixed_mbps 1);
            Float (jain mixed_mbps);
            Float (jain (goodputs control));
          ];
        ];
    ]

(* E9: gain scheduling — fixed-gain RSS vs the RTT-adaptive variant
   across E4's RTT sweep. *)
let adaptive_gains ?pool ?(duration = Sim.Time.sec 20) () =
  result
    ~note:
      "note: fixed gains are tuned for the 60 ms path; the adaptive policy\n\
       rescales Ti/Td from the measured base RTT (Tc = 2*RTT rule)."
    [
      rtt_sweep ?pool ~duration
        [ "standard"; "restricted"; "restricted-adaptive" ];
    ]

(* E10: is pacing alone enough? *)
let pacing ?pool ?(duration = Sim.Time.sec 25) () =
  result
    ~note:
      "note: pacing spreads the slow-start bursts so the IFQ fills later\n\
       and more smoothly, but exponential growth still pushes the window\n\
       past BDP + IFQ; only the closed-loop controller stops short of it."
    [
      flow_table
        (flows ?pool
           (List.map
              (fun (label, ss, pacing) ->
                ( label,
                  one_flow ~label
                    ~flow:{ Spec.default_flow with Spec.pacing }
                    ~duration ss ))
              [
                ("standard", "standard", false);
                ("standard+pacing", "standard", true);
                ("restricted", "restricted", false);
                ("restricted+pacing", "restricted", true);
              ]));
    ]

(* E11: N parallel streams from one host share its interface queue.
   "restricted-shared" uses one host-wide controller; the others get an
   independent policy per connection. *)
let parallel_streams_row ~seed ~streams ~slow_start_name ~duration =
  let shared = slow_start_name = "restricted-shared" in
  let spec =
    {
      Spec.default with
      Spec.name = Printf.sprintf "e11-%s-x%d" slow_start_name streams;
      seed;
      duration;
      record_series = false;
      flows =
        List.init streams (fun i ->
            {
              Spec.default_flow with
              Spec.label = Some (Printf.sprintf "%s-%d" slow_start_name i);
              slow_start = (if shared then "restricted" else slow_start_name);
              shared_rss = shared;
            });
    }
  in
  let o = Spec.run spec in
  [
    Int streams;
    Text slow_start_name;
    Float o.Spec.path.Spec.aggregate_goodput_mbps;
    Int
      (List.fold_left
         (fun acc (r : Spec.flow_result) -> acc + r.Spec.send_stalls)
         0 o.Spec.results);
    Float o.Spec.path.Spec.jain_index;
    Float o.Spec.path.Spec.queue_mean;
  ]

let parallel_streams ?pool ?(duration = Sim.Time.sec 20) () =
  let cells =
    List.concat
      (List.mapi
         (fun i streams ->
           let seed = Sim.Rng.derive_seed ~root:47 ~stream:i in
           List.map
             (fun ss -> (streams, ss, seed))
             [ "standard"; "restricted"; "restricted-shared" ])
         [ 1; 2; 4; 8 ])
  in
  result
    ~note:
      "note: at 1-2 streams per-connection RSS removes the stalls\n\
       outright, but at 4-8 its N independent controllers fight over the\n\
       one shared queue and stalls reappear (parallelism itself —\n\
       GridFTP's own workaround — masks the single-flow collapse). The\n\
       restricted-shared rows are this repo's extension: ONE host-wide\n\
       controller whose budget (and burst allowance) the members split —\n\
       stall-free at every stream count with near-perfect Jain fairness."
    [
      table
        [
          "streams"; "slow_start"; "aggregate_mbps"; "send_stalls";
          "jain_index"; "mean_ifq_packets";
        ]
        (pmap ?pool
           ~label:(fun (streams, ss, seed) ->
             Printf.sprintf "e11 %s x%d (seed=%d)" ss streams seed)
           (fun (streams, ss, seed) ->
             parallel_streams_row ~seed ~streams ~slow_start_name:ss ~duration)
           cells);
    ]

(* E12: RED with ECN marking on the host's own qdisc vs the paper's
   direct controller. RED thresholds are scaled to the 100-packet IFQ,
   with a heavier EWMA weight than WAN RED because the queue is small
   and fast-moving. *)
let local_ecn ?pool ?(duration = Sim.Time.sec 25) () =
  let red =
    {
      Spec.default_duplex with
      Spec.ifq_red_ecn =
        Some
          {
            Netsim.Queue_disc.min_th = 30.;
            max_th = 90.;
            max_p = 0.1;
            weight = 0.02;
          };
    }
  in
  result
    ~note:
      "note: RED+ECN on the host qdisc (the road Linux later took) also\n\
       avoids hard stalls, but each mark takes a full RTT to echo back and\n\
       triggers a multiplicative halving, so the window saws below the\n\
       pipe; the controller regulates to the set point instead."
    [
      flow_table
        (flows ?pool
           (List.map
              (fun (label, path, ss) ->
                (label, one_flow ~label ~path ~duration ss))
              [
                ("standard/drop-tail", Spec.default_duplex, "standard");
                ("standard/red-ecn qdisc", red, "standard");
                ("restricted/drop-tail", Spec.default_duplex, "restricted");
              ]));
    ]

(* E13: a disk-paced application writing a 6 MB chunk every 3 s — the
   workload that makes one transfer accumulate Figure 1's staircase of
   send-stalls. With RFC 2861 idle-restart off, every chunk dumps a
   full old-cwnd burst into the IFQ and stalls; restart-on avoids the
   stall at the price of re-running slow-start per chunk; pacing
   smooths the burst. *)
let chunked_app ?pool ?(duration = Sim.Time.sec 25) () =
  let rs =
    flows ?pool
      (List.map
         (fun (label, ss, slow_start_restart, pacing) ->
           let flow =
             {
               Spec.default_flow with
               Spec.slow_start_restart;
               pacing;
               workload =
                 Spec.Chunked
                   {
                     chunk_bytes = 6_000_000;
                     interval = Sim.Time.sec 3;
                     chunks = None;
                   };
             }
           in
           (label, one_flow ~label ~seed:3 ~flow ~duration ss))
         [
           ("standard/restart-on", "standard", true, false);
           ("standard/restart-off", "standard", false, false);
           ("standard/restart-off+pacing", "standard", false, true);
           ("restricted/restart-on", "restricted", true, false);
         ])
  in
  result
    ~series:
      (List.map
         (fun (r : Spec.flow_result) ->
           { label = r.Spec.label; data = r.Spec.stalls_series })
         rs)
    ~note:
      "note: with RFC 2861 idle-restart disabled (a period-typical tuning\n\
       for bulk movers), each application burst dumps the old window into\n\
       the IFQ: one stall per chunk, the staircase of the paper's Fig. 1."
    [
      table
        [ "label"; "goodput_mbps"; "send_stalls"; "congestion_signals" ]
        (List.map
           (fun (r : Spec.flow_result) ->
             [
               Text r.Spec.label;
               Float r.Spec.goodput_mbps;
               Int r.Spec.send_stalls;
               Int r.Spec.congestion_signals;
             ])
           rs);
    ]

(* E14: one-way delay of delivered data segments, sampled where the
   forward link begins (after the IFQ and serialization, where the
   standing queue lives) plus the constant propagation delay. *)
let latency_row ~label ~slow_start_name ~setpoint ~duration =
  let restricted =
    Option.map
      (fun fraction ->
        {
          Tcp.Slow_start.default_restricted_config with
          Tcp.Slow_start.setpoint_fraction = fraction;
        })
      setpoint
  in
  let spec =
    one_flow ~label ~seed:5
      ~flow:{ Spec.default_flow with Spec.restricted }
      ~duration slow_start_name
  in
  let built = Spec.build { spec with Spec.record_series = false } in
  let summary = Sim.Stats.Summary.create () in
  let histogram = Sim.Stats.Histogram.create ~lo:0. ~hi:200. ~bins:2000 in
  let link = Spec.forward_link built in
  let owd_ms = Sim.Time.to_ms (Netsim.Link.delay link) in
  Netsim.Link.add_tap link (fun now pkt ->
      match pkt.Netsim.Packet.payload with
      | Proto.Payload.Tcp h when h.Proto.Tcp_header.payload_len > 0 ->
          let ms =
            Sim.Time.to_ms (Sim.Time.sub now pkt.Netsim.Packet.created)
            +. owd_ms
          in
          Sim.Stats.Summary.add summary ms;
          Sim.Stats.Histogram.add histogram ms
      | Proto.Payload.Tcp _ | Proto.Payload.Udp _ -> ());
  let r = List.hd (Spec.execute built).Spec.results in
  [
    Text label;
    Float r.Spec.goodput_mbps;
    Float (Sim.Stats.Summary.mean summary);
    Float (Sim.Stats.Histogram.quantile histogram 0.99);
  ]

let latency ?pool ?(duration = Sim.Time.sec 20) () =
  result
    ~note:
      "note: the 90% set point keeps ~90 packets (~11 ms at 100 Mbit/s)\n\
       standing in the IFQ, a proto-bufferbloat tax. Halving the set\n\
       point returns ~5 ms for ~2 Mbit/s; at 0.2 the margin becomes too\n\
       thin for delayed-ACK burst noise and throughput starts to slip."
    [
      table
        [ "label"; "goodput_mbps"; "mean_delay_ms"; "p99_delay_ms" ]
        (pmap ?pool
           ~label:(fun (label, _, _) -> "e14 " ^ label)
           (fun (label, slow_start_name, setpoint) ->
             latency_row ~label ~slow_start_name ~setpoint ~duration)
           [
             ("standard", "standard", None);
             ("restricted (0.9)", "restricted", None);
             ("restricted (0.5)", "restricted", Some 0.5);
             ("restricted (0.2)", "restricted", Some 0.2);
           ]);
    ]

(* The policy arena: every named congestion-control bundle on every
   Arena scenario (one seed, so each policy meets the same network),
   then the league. *)
let arena ?pool ?(duration = Sim.Time.sec 15) () =
  let cells = Arena.run ?pool ~duration () in
  result ~note:"note: score = mean utilization x mean Jain index."
    [
      table
        [
          "policy"; "scenario"; "goodput_mbps"; "utilization"; "jain_index";
          "send_stalls"; "congestion_signals"; "retransmits"; "timeouts";
        ]
        (List.map
           (fun (c : Arena.cell) ->
             [
               Text c.Arena.policy;
               Text c.Arena.scenario;
               Float c.Arena.goodput_mbps;
               Float c.Arena.utilization;
               Float c.Arena.jain_index;
               Int c.Arena.send_stalls;
               Int c.Arena.congestion_signals;
               Int c.Arena.retransmits;
               Int c.Arena.timeouts;
             ])
           cells);
      table ~name:"league"
        [
          "rank"; "policy"; "score"; "mean_utilization"; "mean_jain";
          "total_stalls"; "total_retransmits"; "total_timeouts";
        ]
        (List.mapi
           (fun i (s : Arena.standing) ->
             [
               Int (i + 1);
               Text s.Arena.lpolicy;
               Float s.Arena.score;
               Float s.Arena.mean_utilization;
               Float s.Arena.mean_jain;
               Int s.Arena.total_stalls;
               Int s.Arena.total_retransmits;
               Int s.Arena.total_timeouts;
             ])
           (Arena.league cells));
    ]

(* The many-flows engine against the mean-field RED stability boundary,
   on the paper's path with its 100-packet interface queue. *)
let meanfield ?pool ?(duration = Sim.Time.sec 30) () =
  let path = { Meanfield.paper_path with Meanfield.buffer_packets = 100 } in
  let s = Meanfield.sweep ?pool ~duration path ~seed:1 in
  let verdict = function
    | Meanfield.Stable -> Text "stable"
    | Meanfield.Oscillatory -> Text "oscillatory"
  in
  result
    ~note:
      "note: rows in the 0.25x..2x band around the predicted boundary are\n\
       not scored: there the engine's independent per-flow losses damp\n\
       the limit cycle that the linearized oracle predicts."
    [
      table
        [
          "flows"; "gain_margin"; "predicted"; "queue_mean_packets";
          "relative_amplitude"; "measured"; "in_band";
        ]
        (List.map
           (fun (p : Meanfield.sweep_point) ->
             [
               Int p.Meanfield.sp_flows;
               Float p.Meanfield.sp_margin;
               verdict p.Meanfield.sp_predicted;
               Float p.Meanfield.sp_queue_mean;
               Float p.Meanfield.sp_amplitude;
               verdict p.Meanfield.sp_measured;
               Text (string_of_bool p.Meanfield.sp_in_band);
             ])
           s.Meanfield.points);
      table ~name:"agreement"
        [ "critical_flows"; "agreed"; "out_of_band" ]
        [
          [
            Int s.Meanfield.critical;
            Int s.Meanfield.agreed;
            Int s.Meanfield.out_of_band;
          ];
        ];
    ]

let drivers =
  [
    ("fig1", "paper Figure 1: cumulative send-stall signals, 0-25 s", fig1);
    ("table1", "paper §4 throughput claim (~40% improvement), 25 s and 60 s",
      table1);
    ("e2", "slow-start variant comparison on the paper path (25 s)", variants);
    ("e3", "throughput vs interface-queue size, std vs RSS (20 s)", ifq_sweep);
    ("e4", "throughput vs round-trip time, std vs RSS (20 s)", rtt_scaling);
    ("e5", "slow-start overshoot loss at a network bottleneck (15 s)",
      burst_loss);
    ("e6", "PID tuning ablation, ZN experiment on the live simulator (20 s)",
      pid_ablation);
    ("e7", "local-congestion policy ablation, standard slow-start (25 s)",
      local_cong_ablation);
    ("e8", "friendliness: RSS vs Reno on a shared bottleneck (40 s)", fairness);
    ("e9", "gain scheduling: fixed vs RTT-adaptive RSS (20 s)", adaptive_gains);
    ("e10", "does pacing alone prevent send-stalls? (25 s)", pacing);
    ("e11", "parallel GridFTP-style streams sharing one host (20 s)",
      parallel_streams);
    ("e12", "ECN marking on the local qdisc vs the RSS controller (25 s)",
      local_ecn);
    ("e13", "disk-paced chunked transfer: the Figure 1 staircase (25 s)",
      chunked_app);
    ("e14", "the latency cost of a standing queue (20 s)", latency);
    ("arena", "policy arena: every named bundle on six scenarios (15 s)",
      arena);
    ("meanfield",
      "many-flows engine vs the mean-field RED stability boundary (30 s)",
      meanfield);
  ]

let catalog = List.map (fun (id, title, _) -> { id; title }) drivers

let run ?pool ?duration id =
  match List.find_opt (fun (id', _, _) -> id' = id) drivers with
  | Some (_, _, driver) -> driver ?pool ?duration ()
  | None -> invalid_arg (Printf.sprintf "Experiments.run: unknown id %S" id)
