(* Each driver builds its independent experiment cells (variant ×
   duration × parameter point) as specs and runs them as tasks on an
   optional Engine pool; [?pool = None] is the sequential path. Cells at
   the same parameter point share one seed (fair variant comparison);
   distinct points get seeds derived with [Sim.Rng.derive_seed] so no
   two cells ever share a random stream. Every cell builds its own
   scheduler and results are looked up by cell key, so parallel output
   is bit-identical to sequential. *)

let pmap ?pool ~label f xs =
  match pool with
  | None -> List.map f xs
  | Some pool -> Engine.Pool.map pool ~label ~f xs

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

module Fig1 = struct
  type t = {
    standard : Spec.flow_result;
    restricted : Spec.flow_result;
    duration : Sim.Time.t;
  }

  let run ?pool ?(duration = Sim.Time.sec 25) () =
    let find =
      run_flows ?pool
        (List.map
           (fun ss -> (ss, one_flow ~duration ss))
           [ "standard"; "restricted" ])
    in
    { standard = find "standard"; restricted = find "restricted"; duration }
end

module Table1 = struct
  type row = {
    duration_s : float;
    standard_mbps : float;
    restricted_mbps : float;
    improvement_pct : float;
    standard_stalls : int;
    restricted_stalls : int;
  }

  let run ?pool ?(durations = [ 25.; 60. ]) () =
    let find =
      sweep ?pool ~variants:[ "standard"; "restricted" ]
        ~spec:(fun ~seed d ss ->
          one_flow ~seed ~duration:(Sim.Time.of_sec d) ss)
        durations
    in
    List.map
      (fun d ->
        let std = find (d, "standard") and rss = find (d, "restricted") in
        {
          duration_s = d;
          standard_mbps = std.Spec.goodput_mbps;
          restricted_mbps = rss.Spec.goodput_mbps;
          improvement_pct =
            (if std.Spec.goodput_mbps > 0. then
               100.
               *. (rss.Spec.goodput_mbps -. std.Spec.goodput_mbps)
               /. std.Spec.goodput_mbps
             else 0.);
          standard_stalls = std.Spec.send_stalls;
          restricted_stalls = rss.Spec.send_stalls;
        })
      durations
end

module Variants = struct
  let names = [ "standard"; "abc"; "limited"; "hystart"; "restricted" ]

  let run ?pool ?(duration = Sim.Time.sec 25) () =
    let find =
      run_flows ?pool (List.map (fun ss -> (ss, one_flow ~duration ss)) names)
    in
    List.map find names
end

module Ifq_sweep = struct
  type row = {
    ifq_capacity : int;
    standard : Spec.flow_result;
    restricted : Spec.flow_result;
  }

  let run ?pool ?(sizes = [ 25; 50; 100; 200; 400; 800 ])
      ?(duration = Sim.Time.sec 20) () =
    let find =
      sweep ?pool ~variants:[ "standard"; "restricted" ]
        ~spec:(fun ~seed size ss ->
          one_flow ~seed
            ~path:{ Spec.default_duplex with Spec.ifq_capacity = size }
            ~duration ss)
        sizes
    in
    List.map
      (fun size ->
        {
          ifq_capacity = size;
          standard = find (size, "standard");
          restricted = find (size, "restricted");
        })
      sizes
end

(* The paper path at round-trip time [rtt] ms. *)
let rtt_path rtt =
  { Spec.default_duplex with Spec.one_way_delay = Sim.Time.ms (rtt / 2) }

module Rtt_sweep = struct
  type row = {
    rtt_ms : int;
    standard : Spec.flow_result;
    restricted : Spec.flow_result;
  }

  let run ?pool ?(rtts_ms = [ 10; 30; 60; 120; 200 ])
      ?(duration = Sim.Time.sec 20) () =
    let find =
      sweep ?pool ~variants:[ "standard"; "restricted" ]
        ~spec:(fun ~seed rtt ss ->
          one_flow ~seed ~path:(rtt_path rtt) ~duration ss)
        rtts_ms
    in
    List.map
      (fun rtt ->
        {
          rtt_ms = rtt;
          standard = find (rtt, "standard");
          restricted = find (rtt, "restricted");
        })
      rtts_ms
end

module Burst_loss = struct
  type row = {
    bottleneck_mbps : float;
    buffer_packets : int;
    slow_start : string;
    router_drops : int;
    retransmits : int;
    goodput_mbps : float;
  }

  (* One flow crossing a dumbbell whose bottleneck is a router port with
     a BDP/4 buffer; the sender's own NIC is 1 Gbit/s so the slow-start
     burst lands on the router queue. *)
  let run_one ~seed ~rate_mbps ~slow_start_name ~duration =
    let bottleneck_rate = Sim.Units.mbps rate_mbps in
    let rtt = Sim.Time.ms 60 in
    let bdp =
      Sim.Units.bdp_packets bottleneck_rate ~rtt ~packet_bytes:1500
    in
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
    {
      bottleneck_mbps = rate_mbps;
      buffer_packets;
      slow_start = slow_start_name;
      router_drops = o.Spec.path.Spec.router_drops;
      retransmits = r.Spec.retransmits;
      goodput_mbps = r.Spec.goodput_mbps;
    }

  let run ?pool ?(rates_mbps = [ 10.; 100.; 622.; 1000. ])
      ?(duration = Sim.Time.sec 15) () =
    let cells =
      List.concat
        (List.mapi
           (fun i rate_mbps ->
             let seed = Sim.Rng.derive_seed ~root:11 ~stream:i in
             List.map
               (fun ss -> (rate_mbps, ss, seed))
               [ "standard"; "limited"; "restricted" ])
           rates_mbps)
    in
    pmap ?pool
      ~label:(fun (rate, ss, seed) ->
        Printf.sprintf "e5 %s @ %g Mb/s (seed=%d)" ss rate seed)
      (fun (rate_mbps, ss, seed) ->
        run_one ~seed ~rate_mbps ~slow_start_name:ss ~duration)
      cells
end

module Pid_ablation = struct
  type row = {
    label : string;
    gains : Control.Pid.gains;
    result : Spec.flow_result;
  }

  type t = {
    measured : (Control.Tuning.critical_point, string) result;
    rows : row list;
  }

  let run ?pool ?(duration = Sim.Time.sec 20) () =
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
            ( "paper-rule (measured Kc,Tc)",
              Control.Tuning.paper_pid critical );
            ("tyreus-luyben (measured)", Control.Tuning.tyreus_luyben critical);
          ]
      | Error _ -> []
    in
    let find =
      run_flows ?pool
        (List.map
           (fun (label, gains) ->
             let restricted = Some { base with Tcp.Slow_start.gains } in
             ( label,
               one_flow ~label
                 ~flow:{ Spec.default_flow with Spec.restricted }
                 ~duration "restricted" ))
           cells)
    in
    {
      measured;
      rows =
        List.map
          (fun (label, gains) -> { label; gains; result = find label })
          cells;
    }
end

module Local_cong_ablation = struct
  let run ?pool ?(duration = Sim.Time.sec 25) () =
    let policies =
      [
        Tcp.Local_congestion.Halve;
        Tcp.Local_congestion.Cwr;
        Tcp.Local_congestion.Ignore;
      ]
    in
    let labels = List.map Tcp.Local_congestion.to_string policies in
    let find =
      run_flows ?pool
        (List.map2
           (fun label local_congestion ->
             ( label,
               one_flow ~label
                 ~flow:{ Spec.default_flow with Spec.local_congestion }
                 ~duration "standard" ))
           labels policies)
    in
    List.map (fun label -> (label, find label)) labels
end

module Adaptive_gains = struct
  type row = {
    rtt_ms : int;
    standard : Spec.flow_result;
    restricted_fixed : Spec.flow_result;
    restricted_adaptive : Spec.flow_result;
  }

  let run ?pool ?(rtts_ms = [ 10; 30; 60; 120; 200 ])
      ?(duration = Sim.Time.sec 20) () =
    let find =
      sweep ?pool
        ~variants:[ "standard"; "restricted"; "restricted-adaptive" ]
        ~spec:(fun ~seed rtt ss ->
          one_flow ~seed ~path:(rtt_path rtt) ~duration ss)
        rtts_ms
    in
    List.map
      (fun rtt ->
        {
          rtt_ms = rtt;
          standard = find (rtt, "standard");
          restricted_fixed = find (rtt, "restricted");
          restricted_adaptive = find (rtt, "restricted-adaptive");
        })
      rtts_ms
end

module Pacing = struct
  let run ?pool ?(duration = Sim.Time.sec 25) () =
    let cells =
      List.map
        (fun (label, ss, pacing) ->
          ( label,
            one_flow ~label ~flow:{ Spec.default_flow with Spec.pacing }
              ~duration ss ))
        [
          ("standard", "standard", false);
          ("standard+pacing", "standard", true);
          ("restricted", "restricted", false);
          ("restricted+pacing", "restricted", true);
        ]
    in
    List.map (run_flows ?pool cells) (List.map fst cells)
end

module Parallel_streams = struct
  type row = {
    streams : int;
    slow_start : string;
    aggregate_mbps : float;
    total_stalls : int;
    jain_index : float;
    mean_ifq : float;
  }

  let run_one ~seed ~streams ~slow_start_name ~duration =
    (* "restricted-shared" uses one host-wide controller; the others get
       an independent policy per connection. *)
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
    {
      streams;
      slow_start = slow_start_name;
      aggregate_mbps = o.Spec.path.Spec.aggregate_goodput_mbps;
      total_stalls =
        List.fold_left
          (fun acc (r : Spec.flow_result) -> acc + r.Spec.send_stalls)
          0 o.Spec.results;
      jain_index = o.Spec.path.Spec.jain_index;
      mean_ifq = o.Spec.path.Spec.queue_mean;
    }

  let run ?pool ?(stream_counts = [ 1; 2; 4; 8 ])
      ?(duration = Sim.Time.sec 20) () =
    let cells =
      List.concat
        (List.mapi
           (fun i streams ->
             let seed = Sim.Rng.derive_seed ~root:47 ~stream:i in
             List.map
               (fun ss -> (streams, ss, seed))
               [ "standard"; "restricted"; "restricted-shared" ])
           stream_counts)
    in
    pmap ?pool
      ~label:(fun (streams, ss, seed) ->
        Printf.sprintf "e11 %s x%d (seed=%d)" ss streams seed)
      (fun (streams, ss, seed) ->
        run_one ~seed ~streams ~slow_start_name:ss ~duration)
      cells
end

module Local_ecn = struct
  type row = { label : string; result : Spec.flow_result; ce_marks : int }

  (* RED thresholds scaled to the 100-packet IFQ; a heavier EWMA weight
     than WAN RED because the queue is small and fast-moving. *)
  let qdisc_params =
    {
      Netsim.Queue_disc.min_th = 30.;
      max_th = 90.;
      max_p = 0.1;
      weight = 0.02;
    }

  let run ?pool ?(duration = Sim.Time.sec 25) () =
    let red =
      { Spec.default_duplex with Spec.ifq_red_ecn = Some qdisc_params }
    in
    let cells =
      List.map
        (fun (label, path, ss) -> (label, one_flow ~label ~path ~duration ss))
        [
          ("standard/drop-tail", Spec.default_duplex, "standard");
          ("standard/red-ecn qdisc", red, "standard");
          ("restricted/drop-tail", Spec.default_duplex, "restricted");
        ]
    in
    let find = run_flows ?pool cells in
    List.map
      (fun (label, _) ->
        let result = find label in
        { label; result; ce_marks = result.Spec.ce_marks })
      cells
end

module Chunked_app = struct
  type row = {
    label : string;
    goodput_mbps : float;
    send_stalls : int;
    congestion_signals : int;
    stalls_series : Sim.Stats.Series.t;
  }

  let run ?pool ?(chunk_bytes = 6_000_000) ?(interval = Sim.Time.sec 3)
      ?(duration = Sim.Time.sec 25) () =
    let cells =
      List.map
        (fun (label, ss, slow_start_restart, pacing) ->
          let flow =
            {
              Spec.default_flow with
              Spec.slow_start_restart;
              pacing;
              workload =
                Spec.Chunked { chunk_bytes; interval; chunks = None };
            }
          in
          (label, one_flow ~label ~seed:3 ~flow ~duration ss))
        [
          ("standard/restart-on", "standard", true, false);
          ("standard/restart-off", "standard", false, false);
          ("standard/restart-off+pacing", "standard", false, true);
          ("restricted/restart-on", "restricted", true, false);
        ]
    in
    let find = run_flows ?pool cells in
    List.map
      (fun (label, _) ->
        let r = find label in
        {
          label;
          goodput_mbps = r.Spec.goodput_mbps;
          send_stalls = r.Spec.send_stalls;
          congestion_signals = r.Spec.congestion_signals;
          stalls_series = r.Spec.stalls_series;
        })
      cells
end

module Latency = struct
  type row = {
    label : string;
    goodput_mbps : float;
    mean_delay_ms : float;
    p99_delay_ms : float;
  }

  let run_one ~label ~slow_start_name ~setpoint ~duration =
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
    (* One-way delay of data segments, sampled where the forward link
       begins (after the IFQ and serialization — where the standing
       queue lives) plus the constant propagation delay. *)
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
    {
      label;
      goodput_mbps = r.Spec.goodput_mbps;
      mean_delay_ms = Sim.Stats.Summary.mean summary;
      p99_delay_ms = Sim.Stats.Histogram.quantile histogram 0.99;
    }

  let run ?pool ?(duration = Sim.Time.sec 20) () =
    let cells =
      [
        ("standard", "standard", None);
        ("restricted (0.9)", "restricted", None);
        ("restricted (0.5)", "restricted", Some 0.5);
        ("restricted (0.2)", "restricted", Some 0.2);
      ]
    in
    pmap ?pool
      ~label:(fun (label, _, _) -> "e14 " ^ label)
      (fun (label, slow_start_name, setpoint) ->
        run_one ~label ~slow_start_name ~setpoint ~duration)
      cells
end

module Fairness = struct
  type t = {
    reno_mbps : float;
    restricted_mbps : float;
    jain_index : float;
    reno_vs_reno_jain : float;
  }

  let jain xs =
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0. xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if s2 <= 0. then 1. else s *. s /. (n *. s2)

  let pair ~duration (ss_a, ss_b) =
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

  let run ?pool ?(duration = Sim.Time.sec 40) () =
    let mixed = ("standard", "restricted")
    and control = ("standard", "standard") in
    let find =
      run_cells ?pool
        (List.map (fun cell -> (cell, pair ~duration cell)) [ mixed; control ])
    in
    let goodputs key =
      List.map (fun (r : Spec.flow_result) -> r.Spec.goodput_mbps) (find key)
    in
    let mixed_mbps = goodputs mixed in
    {
      reno_mbps = List.nth mixed_mbps 0;
      restricted_mbps = List.nth mixed_mbps 1;
      jain_index = jain mixed_mbps;
      reno_vs_reno_jain = jain (goodputs control);
    }
end
