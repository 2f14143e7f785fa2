(* Declarative scenario pipeline: spec value -> built network -> outcome.

   Compilation is ordered so that a spec reproducing one of the legacy
   hand-wired assemblies (the one-flow paper path, experiments
   E5/E8/E11/E13/E14, the chaos harness) performs the same
   scheduler/RNG operations in the same sequence, keeping results
   byte-identical through the refactor:
   partitions -> topology -> fault models (forward, then reverse) ->
   flows starting at t = 0, in list order. Execute then runs the
   partitions, starting later flows and sampling at coordinator
   breaks. *)

open Spec_types

type net =
  | Net_duplex of Netsim.Topology.Duplex.t
  | Net_multi of Netsim.Topology.Multi_dumbbell.t

type driver =
  | Bulk_driver of Workload.Bulk.t
  | Chunked_driver of Workload.Chunked.t
  | Cbr_driver of Workload.Cbr.t * int
  | On_off_driver of Workload.On_off.t * int
  | Short_driver of Workload.Short_flows.t
  | Many_driver of Workload.Many_flows.t array
      (* one engine per shard: per-segment sub-populations on a chain
         (shard k lives on partition k's scheduler when domains > 1), a
         single shard on the duplex path. The shard layout is a
         function of the topology alone, never of [domains]. *)

type built_flow = {
  fspec : flow;
  index : int;
  flabel : string;
  src : Netsim.Host.t;
  dst : Netsim.Host.t;
  fsrc_part : int;  (* partition owning src (0 on one-partition runs) *)
  fdst_part : int;  (* partition owning dst *)
  mutable driver : driver option;
}

type built = {
  bspec : t;
  parts : Sim.Partition.t;
      (* one partition when [domains <= 1]; execute runs every build
         through [Sim.Partition.run] *)
  net : net;
  pids : Netsim.Packet.Id_source.source array;
      (* packet-id source per partition; [|ids|] on one-partition runs.
         Ids only label packets (no behavioral consumer), so disjoint
         per-partition counters keep allocation data-race-free without
         perturbing anything observable. *)
  fwd_fault : Fm.t option;
  rev_fault : Fm.t option;
  bflows : built_flow list;
  shared : (int, Tcp.Shared_rss.t) Hashtbl.t;
  line_mbps : float;
  btrace : Trace.t option;
}

let sched b = Sim.Partition.scheduler b.parts 0
let trace b = b.btrace

let pair_hosts net pair =
  match net with
  | Net_duplex d -> (d.Netsim.Topology.Duplex.a, d.Netsim.Topology.Duplex.b)
  | Net_multi md ->
      (* Pairs 0..segments*pairs-1 stay inside their segment (segment
         s, local pair i at pair = s*pairs + i); the cross_pairs after
         them run left host 0 of segment c to right host 0 of segment
         c+1 across the core. *)
      let segs = md.Netsim.Topology.Multi_dumbbell.segments in
      let per = Array.length segs.(0).Netsim.Topology.Multi_dumbbell.left in
      let base = Array.length segs * per in
      if pair < base then
        ( segs.(pair / per).Netsim.Topology.Multi_dumbbell.left.(pair mod per),
          segs.(pair / per).Netsim.Topology.Multi_dumbbell.right.(pair mod per)
        )
      else
        let c = pair - base in
        ( segs.(c).Netsim.Topology.Multi_dumbbell.left.(0),
          segs.(c + 1).Netsim.Topology.Multi_dumbbell.right.(0) )

(* The partition that holds topology segment (or duplex side) [k]:
   [k] itself under the topology-determined cut, 0 on a one-partition
   run. *)
let part_of spec k = if spec.domains <= 1 then 0 else k

(* Partition indices of a pair's (src, dst) hosts under the fixed
   topology-determined cut. (0, 0) on one-partition runs. *)
let pair_parts spec pair =
  if spec.domains <= 1 then (0, 0)
  else
    match spec.topology with
    | Duplex _ -> (0, 1)
    | topo ->
        let m = chain topo in
        let base = m.segments * m.m_pairs in
        if pair < base then (pair / m.m_pairs, pair / m.m_pairs)
        else
          let c = pair - base in
          (c, c + 1)

let src_host b ~pair = fst (pair_hosts b.net pair)
let dst_host b ~pair = snd (pair_hosts b.net pair)

let forward_link b =
  match b.net with
  | Net_duplex d -> d.Netsim.Topology.Duplex.a_to_b
  | Net_multi md ->
      md.Netsim.Topology.Multi_dumbbell.segments.(0)
        .Netsim.Topology.Multi_dumbbell.bottleneck_lr

let reverse_link b =
  match b.net with
  | Net_duplex d -> d.Netsim.Topology.Duplex.b_to_a
  | Net_multi md ->
      md.Netsim.Topology.Multi_dumbbell.segments.(0)
        .Netsim.Topology.Multi_dumbbell.bottleneck_rl

let fault_models b = (b.fwd_fault, b.rev_fault)

let many_flows_engines b =
  List.concat_map
    (fun bf ->
      match bf.driver with
      | Some (Many_driver shards) -> Array.to_list shards
      | _ -> [])
    b.bflows

let config_of_flow (p : Tcp.Policy.t) (f : flow) =
  let pace_ss_gain, pace_ca_gain =
    match p.Tcp.Policy.pace_gains with
    | Some gains -> gains
    | None ->
        ( Tcp.Config.default.Tcp.Config.pace_ss_gain,
          Tcp.Config.default.Tcp.Config.pace_ca_gain )
  in
  {
    Tcp.Config.default with
    Tcp.Config.local_congestion = f.local_congestion;
    pace_ss_gain;
    pace_ca_gain;
    delayed_ack = f.delayed_ack;
    use_sack = f.use_sack;
    pacing = f.pacing;
    slow_start_restart = f.slow_start_restart;
    max_rto =
      (match f.max_rto with
      | Some rto -> rto
      | None -> Tcp.Config.default.Tcp.Config.max_rto);
  }

(* One shared controller per sending host, created when the first
   shared flow on that host starts (so its sampling clock begins before
   any member connection exists, matching the legacy E11 assembly). *)
let controller_for b bf =
  let key = Netsim.Host.id bf.src in
  match Hashtbl.find_opt b.shared key with
  | Some c -> c
  | None ->
      (* The controller samples the sending host's IFQ, so it lives on
         that host's scheduler: the owning partition's. *)
      let c =
        Tcp.Shared_rss.create
          (Netsim.Host.scheduler bf.src)
          ~ifq:(Netsim.Host.ifq bf.src)
          ?config:bf.fspec.restricted ()
      in
      Hashtbl.add b.shared key c;
      c

(* Derived RNG stream for stochastic workloads (on_off, short_flows);
   offset keeps flow streams clear of the chaos fault streams 0xFA1/2
   and the small indices sweeps use for their cells. *)
let flow_rng b index =
  Sim.Rng.of_seed
    (Sim.Rng.derive_seed ~root:b.bspec.seed ~stream:(0x5F10 + index))

let start_flow b bf =
  let f = bf.fspec in
  let flow_id = bf.index + 1 in
  let ids = b.pids.(bf.fsrc_part) in
  let rx_ids = b.pids.(bf.fdst_part) in
  let bundle () = bundle_for ~shared:(fun () -> controller_for b bf) f in
  let driver =
    match f.workload with
    | Bulk { bytes } ->
        let ({ Tcp.Policy.slow_start; cong_avoid; _ } as p) = bundle () in
        Bulk_driver
          (Workload.Bulk.start ~src:bf.src ~dst:bf.dst ~flow:flow_id
             ~ids ~rx_ids ~config:(config_of_flow p f)
             ~slow_start ~cong_avoid ?bytes ())
    | Chunked { chunk_bytes; interval; chunks } ->
        let ({ Tcp.Policy.slow_start; cong_avoid; _ } as p) = bundle () in
        Chunked_driver
          (Workload.Chunked.start ~src:bf.src ~dst:bf.dst ~flow:flow_id
             ~ids ~rx_ids ~chunk_bytes ~interval ?chunks
             ~config:(config_of_flow p f) ~slow_start ~cong_avoid ())
    | Cbr { rate; packet_bytes; stop_at } ->
        Cbr_driver
          ( Workload.Cbr.start ~host:bf.src ~dst:(Netsim.Host.id bf.dst)
              ~flow:flow_id ~ids ~rate ~packet_bytes ?stop_at (),
            packet_bytes )
    | On_off { peak_rate; mean_on; mean_off; packet_bytes } ->
        On_off_driver
          ( Workload.On_off.start ~host:bf.src ~dst:(Netsim.Host.id bf.dst)
              ~flow:flow_id ~ids ~rng:(flow_rng b bf.index) ~peak_rate
              ~mean_on ~mean_off ~packet_bytes (),
            packet_bytes )
    | Short_flows { arrival_rate; mean_size; pareto_shape; stop_at } ->
        (* Each mouse gets a fresh instance of both halves. *)
        Short_driver
          (Workload.Short_flows.start ~src:bf.src ~dst:bf.dst ~ids
             ~rng:(flow_rng b bf.index) ~arrival_rate ~mean_size ~pareto_shape
             ~first_flow:(10_000 + (1_000 * bf.index))
             ~config:(config_of_flow (bundle ()) f)
             ~policy:bundle ?stop_at ())
    | Many_flows
        { flows; arrival_rate; arrival_pareto_shape; mean_size;
          size_pareto_shape } ->
        (* The fluid engine models the bottleneck itself. The
           slow-start phase is the classic doubling round, so only the
           bundle's congestion avoidance applies. *)
        let bottleneck = many_flows_bottleneck b.bspec.topology in
        (* Flows and arrival rate split evenly over the shards (thinned
           Poisson arrivals stay Poisson); the remainder lands on the
           low shards. *)
        let shards = shards_of b.bspec.topology in
        Many_driver
          (Array.init shards (fun k ->
               (* Shard 0 keeps the legacy seed and arrivals stream, so
                  single-shard topologies replay PR 7 runs byte-for-
                  byte. Sibling shards derive their engine seed (rooting
                  the per-row loss streams) and arrivals stream from
                  dedicated ranges clear of every reserved stream id
                  (0x5F10+i flows, 0xFA1/2 faults, 0x9A40+i partitions,
                  0x6D0000+idx per-row losses). *)
               let seed, rng =
                 if k = 0 then (b.bspec.seed, flow_rng b bf.index)
                 else
                   ( Sim.Rng.derive_seed ~root:b.bspec.seed
                       ~stream:(0x6E0000 + (bf.index * 0x100) + k),
                     Sim.Rng.of_seed
                       (Sim.Rng.derive_seed ~root:b.bspec.seed
                          ~stream:(0x6F0000 + (bf.index * 0x100) + k)) )
               in
               Workload.Many_flows.start
                 ~sched:(Sim.Partition.scheduler b.parts (part_of b.bspec k))
                 ~rng ~seed
                 ~cong_avoid:(bundle ()).Tcp.Policy.cong_avoid
                 {
                   bottleneck with
                   Workload.Many_flows.flows =
                     (flows / shards)
                     + (if k < flows mod shards then 1 else 0);
                   arrival_rate =
                     Option.map
                       (fun r -> r /. float_of_int shards)
                       arrival_rate;
                   arrival_pareto_shape;
                   mean_size;
                   size_pareto_shape;
                 }))
  in
  bf.driver <- Some driver;
  (* Single-connection TCP drivers get the run tracer; Short_flows mice
     churn through internal senders and stay untraced (their aggregate
     behaviour shows up in the link/IFQ records). *)
  match b.btrace with
  | None -> ()
  | Some tr -> (
      match driver with
      | Bulk_driver t -> Tcp.Sender.set_tracer (Workload.Bulk.sender t) (Some tr)
      | Chunked_driver t ->
          Tcp.Sender.set_tracer (Workload.Chunked.sender t) (Some tr)
      | Cbr_driver _ | On_off_driver _ | Short_driver _ | Many_driver _ -> ())

let default_label spec i (f : flow) =
  let base =
    match f.policy with
    | Some p -> p
    | None -> fst (Tcp.Policy.split f.slow_start)
  in
  match f.label with
  | Some l -> l
  | None ->
      if List.length spec.flows <= 1 then base
      else Printf.sprintf "%s-%d" base i

let build spec =
  Spec_validate.validate spec;
  (* The partition structure is a function of the topology alone —
     [domains] only caps how many worker domains execute it, so any
     [domains > 1] run of the same spec replays the identical partition
     build (and therefore the identical trajectory). *)
  let nparts =
    if spec.domains <= 1 then 1
    else
      match spec.topology with
      | Duplex _ -> 2
      | topo -> (chain topo).segments
  in
  (* Partition 0 always carries the spec seed, so every stream derived
     from it (the duplex loss stream, derived workload streams) lands on
     the same values at any [domains]; sibling partitions get
     independent derived seeds that nothing in the allowed spec shapes
     consumes. *)
  let parts =
    Sim.Partition.create ~parts:nparts ~seed_of:(fun i ->
        if i = 0 then spec.seed
        else Sim.Rng.derive_seed ~root:spec.seed ~stream:(0x9A40 + i))
  in
  let bsched = Sim.Partition.scheduler parts 0 in
  let net, cut =
    match spec.topology with
    | Duplex d when nparts = 1 ->
        ( Net_duplex
            (Netsim.Topology.Duplex.create bsched ~rate:d.rate
               ~one_way_delay:d.one_way_delay ~ifq_capacity:d.ifq_capacity
               ~loss_rate:d.loss_rate ?ifq_red_ecn:d.ifq_red_ecn ()),
          Netsim.Topology.Cut.single )
    | Duplex d ->
        let path, cut =
          Netsim.Topology.Duplex.create_split bsched
            (Sim.Partition.scheduler parts 1)
            ~rate:d.rate ~one_way_delay:d.one_way_delay
            ~ifq_capacity:d.ifq_capacity ~loss_rate:d.loss_rate
            ?ifq_red_ecn:d.ifq_red_ecn ()
        in
        (Net_duplex path, cut)
    | topo ->
        let m = chain topo in
        let md =
          Netsim.Topology.Multi_dumbbell.create
            ~sched_of:(fun k -> Sim.Partition.scheduler parts (part_of spec k))
            ~segments:m.segments ~pairs:m.m_pairs
            ~access_rate:m.m_access_rate ~access_delay:m.m_access_delay
            ~bottleneck_rate:m.m_bottleneck_rate
            ~bottleneck_delay:m.m_bottleneck_delay ~core_rate:m.core_rate
            ~core_delay:m.core_delay ~buffer_packets:m.m_buffer_packets
            ~ifq_capacity:m.m_host_ifq_capacity ?red:m.m_red
            ~cross_pairs:m.cross_pairs ()
        in
        ( Net_multi md,
          if nparts = 1 then Netsim.Topology.Cut.single
          else md.Netsim.Topology.Multi_dumbbell.cut )
  in
  let pids = Array.init nparts (fun _ -> Netsim.Packet.Id_source.create ()) in
  (* Rewire each boundary link of the cut as a channel endpoint: the
     transmit side hands finished packets to the channel (due = now +
     propagation delay, the channel's lookahead), and the destination
     partition replays delivery — sink dispatch, delivered counter — at
     [due] on its own scheduler. A one-partition cut has no boundary. *)
  List.iter
    (fun (bd : Netsim.Topology.Cut.boundary) ->
      let link = bd.Netsim.Topology.Cut.link in
      let ch =
        Sim.Partition.channel parts ~src:bd.Netsim.Topology.Cut.src
          ~dst:bd.Netsim.Topology.Cut.dst
          ~lookahead:(Netsim.Topology.Cut.lookahead bd)
          ~handler:(fun _due pkt -> Netsim.Link.remote_deliver link pkt)
      in
      Netsim.Link.set_remote link (fun ~due pkt ->
          Sim.Partition.Channel.send ch ~due pkt))
    cut.Netsim.Topology.Cut.boundaries;
  (* A passthrough profile gets no model: an installed passthrough hook
     is behaviourally identical to none (no RNG draws, zero extra
     delay), so skipping keeps unfaulted specs byte-identical to the
     legacy assemblies while sparing the hook dispatch. *)
  let make_fault ~stream profile link =
    if profile = Fm.passthrough then None
    else begin
      let m =
        Fm.create
          ~rng:
            (Sim.Rng.of_seed
               (Sim.Rng.derive_seed ~root:spec.seed ~stream))
          profile
      in
      Fm.install m link;
      Some m
    end
  in
  let line_mbps =
    match spec.topology with
    | Duplex d -> Sim.Units.rate_to_mbps d.rate
    | topo -> Sim.Units.rate_to_mbps (chain topo).m_bottleneck_rate
  in
  let btrace =
    if spec.record_trace then
      Some (Trace.create ~capacity:spec.trace_capacity ())
    else None
  in
  let b0 =
    {
      bspec = spec;
      parts;
      net;
      pids;
      fwd_fault = None;
      rev_fault = None;
      bflows = [];
      shared = Hashtbl.create 4;
      line_mbps;
      btrace;
    }
  in
  (* Streams 0xFA1/0xFA2: the chaos harness's historical fault streams,
     preserved so serialized chaos artifacts replay byte-identically. *)
  let fwd_fault = make_fault ~stream:0xFA1 spec.faults.forward (forward_link b0) in
  let rev_fault = make_fault ~stream:0xFA2 spec.faults.reverse (reverse_link b0) in
  let bflows =
    List.mapi
      (fun i f ->
        let src, dst = pair_hosts net f.pair in
        let fsrc_part, fdst_part = pair_parts spec f.pair in
        {
          fspec = f;
          index = i;
          flabel = default_label spec i f;
          src;
          dst;
          fsrc_part;
          fdst_part;
          driver = None;
        })
      spec.flows
  in
  let b = { b0 with fwd_fault; rev_fault; bflows } in
  (* Trace source ids: 1/2 for the forward/reverse pipe, host ids for
     IFQ and NIC records, flow ids for sender records. Installing the
     tracer draws no randomness and schedules nothing, so a traced run
     performs exactly the model transitions of an untraced one. *)
  (match btrace with
  | None -> ()
  | Some _ ->
      Sim.Scheduler.set_tracer bsched btrace;
      Netsim.Link.set_tracer (forward_link b) ~src:1 btrace;
      Netsim.Link.set_tracer (reverse_link b) ~src:2 btrace;
      for pair = 0 to pairs_of spec.topology - 1 do
        let src, dst = pair_hosts net pair in
        List.iter
          (fun host ->
            let id = Netsim.Host.id host in
            Netsim.Ifq.set_tracer (Netsim.Host.ifq host) ~src:id btrace;
            Netsim.Nic.set_tracer (Netsim.Host.nic host) ~src:id btrace)
          [ src; dst ]
      done);
  (* Later flows start at coordinator breaks during execute. *)
  List.iter
    (fun bf ->
      if Sim.Time.compare bf.fspec.start_at Sim.Time.zero = 0 then
        start_flow b bf)
    bflows;
  b
