let sim_plant ?(seed = 7) ?(rate = Sim.Units.mbps 100.)
    ?(one_way_delay = Sim.Time.ms 30) ?(ifq_capacity = 100) () =
  fun () ->
  let sched = Sim.Scheduler.create ~seed () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate ~one_way_delay ~ifq_capacity ()
  in
  let target = ref 2. in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1
      ~ids:(Netsim.Packet.Id_source.create ())
      ~config:
        {
          Tcp.Config.default with
          (* The probe must not be perturbed by the reactions under
             study: stalls are absorbed, not punished. *)
          local_congestion = Tcp.Local_congestion.Ignore;
        }
      ~slow_start:(Tcp.Slow_start.commanded ~target_segments:target) ()
  in
  ignore conn;
  let ifq = Netsim.Host.ifq path.Netsim.Topology.Duplex.a in
  fun ~dt ~u ->
    target := Float.max 2. u;
    let horizon = Sim.Time.add (Sim.Scheduler.now sched) (Sim.Time.of_sec dt) in
    Sim.Scheduler.run ~until:horizon sched;
    float_of_int (Netsim.Ifq.occupancy ifq)

let ultimate_gain ?(rate = Sim.Units.mbps 100.)
    ?(one_way_delay = Sim.Time.ms 30) ?(ifq_capacity = 100)
    ?(setpoint_fraction = 0.9) () =
  let plant = sim_plant ~rate ~one_way_delay ~ifq_capacity () in
  Control.Ziegler_nichols.ultimate_gain ~plant
    ~setpoint:(setpoint_fraction *. float_of_int ifq_capacity)
    ~dt:0.005 ~horizon:12. ~kp_init:0.05 ~kp_max:1e4 ~refine_steps:8 ()

