(* The topology-cut pass: which links cross partition boundaries when a
   topology is spread over domains. Each boundary link keeps its
   propagation delay as the channel lookahead, so the cut fully
   determines the conservative horizon the partitioned engine can run
   under. The partition structure is a property of the topology alone —
   never of how many worker domains execute it — which is what makes
   partitioned runs byte-identical at any [--domains] count. *)
module Cut = struct
  type boundary = { link : Link.t; src : int; dst : int }
  type t = { parts : int; boundaries : boundary list }

  let single = { parts = 1; boundaries = [] }
  let lookahead b = Link.delay b.link
end

module Duplex = struct
  type t = { a : Host.t; b : Host.t; a_to_b : Link.t; b_to_a : Link.t }

  (* [create] and [create_split] must mirror each other exactly:
     same component construction order, same RNG draws (the forward
     link's stream is split from host a's scheduler in both), so a
     2-partition build replays the single-scheduler build's random
     decisions verbatim. *)
  let build sched_a sched_b ~rate ~one_way_delay ~ifq_capacity ~loss_rate
      ?ifq_red_ecn () =
    let a =
      Host.create sched_a ~id:0 ~nic_rate:rate ~ifq_capacity ?ifq_red_ecn ()
    in
    let b =
      Host.create sched_b ~id:1 ~nic_rate:rate ~ifq_capacity ?ifq_red_ecn ()
    in
    let rng = Sim.Rng.split (Sim.Scheduler.rng sched_a) in
    let a_to_b = Link.create sched_a ~delay:one_way_delay ~loss_rate ~rng () in
    let b_to_a = Link.create sched_b ~delay:one_way_delay () in
    Link.connect a_to_b (Host.deliver b);
    Link.connect b_to_a (Host.deliver a);
    Host.attach_uplink a a_to_b;
    Host.attach_uplink b b_to_a;
    { a; b; a_to_b; b_to_a }

  let create sched ~rate ~one_way_delay ~ifq_capacity ?(loss_rate = 0.)
      ?ifq_red_ecn () =
    build sched sched ~rate ~one_way_delay ~ifq_capacity ~loss_rate
      ?ifq_red_ecn ()

  let create_split sched_a sched_b ~rate ~one_way_delay ~ifq_capacity
      ?(loss_rate = 0.) ?ifq_red_ecn () =
    let t =
      build sched_a sched_b ~rate ~one_way_delay ~ifq_capacity ~loss_rate
        ?ifq_red_ecn ()
    in
    let cut =
      {
        Cut.parts = 2;
        boundaries =
          [
            { Cut.link = t.a_to_b; src = 0; dst = 1 };
            { Cut.link = t.b_to_a; src = 1; dst = 0 };
          ];
      }
    in
    (t, cut)
end

(* K dumbbell segments chained left-to-right through duplex core links —
   the canonical partitionable topology: each segment is an island, the
   core links are the cut, and their propagation delay is the lookahead.
   A plain dumbbell is the one-segment chain (no core link, segment 0's
   ids). Node ids are globally unique by segment block (10000·s + local
   id). Besides the per-segment sender/receiver pairs, [cross_pairs]
   wires the first left host of segment c to the first right host of
   segment c+1, routed across the core — traffic that actually
   exercises the partition boundary. *)
module Multi_dumbbell = struct
  type segment = {
    left : Host.t array;
    right : Host.t array;
    router_l : Router.t;
    router_r : Router.t;
    bottleneck_queue_lr : Queue_disc.t;
    bottleneck_queue_rl : Queue_disc.t;
    bottleneck_lr : Link.t;
    bottleneck_rl : Link.t;
  }

  type t = {
    segments : segment array;
    core_lr : Link.t array;  (* [s]: segment s's router_r -> s+1's router_l *)
    core_rl : Link.t array;  (* [s]: segment s+1's router_l -> s's router_r *)
    cut : Cut.t;
  }

  let block = 10_000
  let left_id s i = (block * s) + i
  let right_id s i = (block * s) + 100 + i

  (* A bottleneck queue: RED when [red] is set, drop-tail otherwise. *)
  let make_queue red ~buffer_packets ~rate =
    match red with
    | Some params ->
        Queue_disc.red ~capacity_packets:buffer_packets ~link_rate:rate params
    | None -> Queue_disc.droptail ~capacity_packets:buffer_packets ()

  let create ~sched_of ~segments ~pairs ~access_rate ~access_delay
      ~bottleneck_rate ~bottleneck_delay ~core_rate ~core_delay
      ~buffer_packets ~ifq_capacity ?red ?(cross_pairs = 0) () =
    if segments < 1 then invalid_arg "Multi_dumbbell.create: segments < 1";
    if pairs < 1 || pairs > 100 then
      invalid_arg "Multi_dumbbell.create: pairs outside 1..100";
    if cross_pairs < 0 || cross_pairs > Int.max 0 (segments - 1) then
      invalid_arg "Multi_dumbbell.create: cross_pairs outside 0..segments-1";
    (* Per-segment dumbbells, each built wholly against its own
       partition's scheduler: N left hosts, N right hosts, the two
       routers, then the bottleneck pipe and the access wiring. The
       bottleneck ports are kept for the cross-segment routes below.
       Construction order is explicit (plain loops, never [Array.init]
       over effects): in the single-scheduler build all segments share
       one derived-stream counter, so the order is part of the
       determinism contract. *)
    let make_segment s =
      let sched = sched_of s in
      let left =
        Array.init pairs (fun i ->
            Host.create sched ~id:(left_id s i) ~nic_rate:access_rate
              ~ifq_capacity ())
      in
      let right =
        Array.init pairs (fun i ->
            Host.create sched ~id:(right_id s i) ~nic_rate:access_rate
              ~ifq_capacity ())
      in
      let router_l = Router.create sched in
      let router_r = Router.create sched in
      let lr_link = Link.create sched ~delay:bottleneck_delay () in
      let rl_link = Link.create sched ~delay:bottleneck_delay () in
      Link.connect lr_link (Router.deliver router_r);
      Link.connect rl_link (Router.deliver router_l);
      let bottleneck_queue_lr =
        make_queue red ~buffer_packets ~rate:bottleneck_rate
      in
      let bottleneck_queue_rl =
        make_queue red ~buffer_packets ~rate:bottleneck_rate
      in
      let lr_port =
        Router.add_port router_l ~queue:bottleneck_queue_lr
          ~rate:bottleneck_rate ~link:lr_link
      in
      let rl_port =
        Router.add_port router_r ~queue:bottleneck_queue_rl
          ~rate:bottleneck_rate ~link:rl_link
      in
      let wire_host host router =
        let up = Link.create sched ~delay:access_delay () in
        Link.connect up (Router.deliver router);
        Host.attach_uplink host up;
        let down = Link.create sched ~delay:access_delay () in
        Link.connect down (Host.deliver host);
        let q = Queue_disc.droptail ~capacity_packets:buffer_packets () in
        let port =
          Router.add_port router ~queue:q ~rate:access_rate ~link:down
        in
        Router.route router ~dst:(Host.id host) port
      in
      Array.iter (fun h -> wire_host h router_l) left;
      Array.iter (fun h -> wire_host h router_r) right;
      Array.iter
        (fun h -> Router.route router_l ~dst:(Host.id h) lr_port)
        right;
      Array.iter
        (fun h -> Router.route router_r ~dst:(Host.id h) rl_port)
        left;
      ( {
          left;
          right;
          router_l;
          router_r;
          bottleneck_queue_lr;
          bottleneck_queue_rl;
          bottleneck_lr = lr_link;
          bottleneck_rl = rl_link;
        },
        lr_port,
        rl_port )
    in
    let seg_slots = Array.make segments None in
    for s = 0 to segments - 1 do
      seg_slots.(s) <- Some (make_segment s)
    done;
    let seg_field f = Array.map (fun o -> f (Option.get o)) seg_slots in
    let segs = seg_field (fun (seg, _, _) -> seg) in
    let lr_ports = seg_field (fun (_, p, _) -> p) in
    let rl_ports = seg_field (fun (_, _, p) -> p) in
    (* Core chain: a duplex pipe between adjacent segments. Each
       direction is owned by the partition whose NIC feeds it; both are
       boundary links when partitioned. *)
    let ncore = Int.max 0 (segments - 1) in
    let core_slots = Array.make ncore None in
    for s = 0 to ncore - 1 do
      let fwd = Link.create (sched_of s) ~delay:core_delay () in
      Link.connect fwd (Router.deliver segs.(s + 1).router_l);
      let fwd_q = Queue_disc.droptail ~capacity_packets:buffer_packets () in
      let fwd_port =
        Router.add_port segs.(s).router_r ~queue:fwd_q ~rate:core_rate
          ~link:fwd
      in
      let rev = Link.create (sched_of (s + 1)) ~delay:core_delay () in
      Link.connect rev (Router.deliver segs.(s).router_r);
      let rev_q = Queue_disc.droptail ~capacity_packets:buffer_packets () in
      let rev_port =
        Router.add_port segs.(s + 1).router_l ~queue:rev_q ~rate:core_rate
          ~link:rev
      in
      core_slots.(s) <- Some (fwd, rev, fwd_port, rev_port)
    done;
    let core_field f = Array.map (fun o -> f (Option.get o)) core_slots in
    let core_lr = core_field (fun (l, _, _, _) -> l) in
    let core_rl = core_field (fun (_, l, _, _) -> l) in
    let fwd_ports = core_field (fun (_, _, p, _) -> p) in
    let rev_ports = core_field (fun (_, _, _, p) -> p) in
    (* Cross-segment routes: pair c runs left.(0) of segment c to
       right.(0) of segment c+1. Data: L-router c -> bottleneck ->
       R-router c -> core -> L-router c+1 -> bottleneck -> host (the
       last two hops reuse segment c+1's local routes). ACKs retrace the
       reverse path. *)
    for c = 0 to cross_pairs - 1 do
      let data_dst = right_id (c + 1) 0 in
      let ack_dst = left_id c 0 in
      Router.route segs.(c).router_l ~dst:data_dst lr_ports.(c);
      Router.route segs.(c).router_r ~dst:data_dst fwd_ports.(c);
      Router.route segs.(c + 1).router_r ~dst:ack_dst rl_ports.(c + 1);
      Router.route segs.(c + 1).router_l ~dst:ack_dst rev_ports.(c)
    done;
    let boundaries =
      List.concat
        (List.init ncore (fun s ->
             [
               { Cut.link = core_lr.(s); src = s; dst = s + 1 };
               { Cut.link = core_rl.(s); src = s + 1; dst = s };
             ]))
    in
    { segments = segs; core_lr; core_rl; cut = { Cut.parts = segments; boundaries } }
end
