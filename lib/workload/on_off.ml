type t = {
  host : Netsim.Host.t;
  sched : Sim.Scheduler.t;
  dst : int;
  flow : int;
  ids : Netsim.Packet.Id_source.source;
  rng : Sim.Rng.t;
  payload_bytes : int;
  period : Sim.Time.t;
  mean_on : Sim.Time.t;
  mean_off : Sim.Time.t;
  mutable seq : int;
  mutable sent : int;
  mutable burst_ends : Sim.Time.t;
}

let exp_duration t mean =
  Sim.Time.of_sec (Sim.Rng.exponential t.rng ~mean:(Sim.Time.to_sec mean))

let rec emit t () =
  let now = Sim.Scheduler.now t.sched in
  if Sim.Time.(now >= t.burst_ends) then begin
    let silence = exp_duration t t.mean_off in
    ignore (Sim.Scheduler.after t.sched silence (begin_burst t))
  end
  else begin
    let pkt =
      Netsim.Packet.make
        ~id:(Netsim.Packet.Id_source.next t.ids)
        ~flow:t.flow ~src:(Netsim.Host.id t.host) ~dst:t.dst ~created:now
        (Proto.Payload.Udp { seq = t.seq; payload_len = t.payload_bytes })
    in
    t.seq <- t.seq + 1;
    (match Netsim.Host.send t.host pkt with
    | `Sent -> t.sent <- t.sent + 1
    | `Stalled -> ());
    ignore (Sim.Scheduler.after t.sched t.period (emit t))
  end

and begin_burst t () =
  let on = exp_duration t t.mean_on in
  t.burst_ends <- Sim.Time.add (Sim.Scheduler.now t.sched) on;
  emit t ()

let start ~host ~dst ~flow ~ids ~rng ~peak_rate ~mean_on ~mean_off
    ?(packet_bytes = 1000) () =
  assert (peak_rate > 0.);
  let wire = packet_bytes + 28 in
  let t =
    {
      host;
      sched = Netsim.Host.scheduler host;
      dst;
      flow;
      ids;
      rng;
      payload_bytes = packet_bytes;
      period = Sim.Units.tx_time peak_rate ~bytes:wire;
      mean_on;
      mean_off;
      seq = 0;
      sent = 0;
      burst_ends = Sim.Time.zero;
    }
  in
  begin_burst t ();
  t

let packets_sent t = t.sent
