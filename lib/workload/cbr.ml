type t = {
  host : Netsim.Host.t;
  sched : Sim.Scheduler.t;
  dst : int;
  flow : int;
  ids : Netsim.Packet.Id_source.source;
  payload_bytes : int;
  period : Sim.Time.t;
  stop_at : Sim.Time.t option;
  mutable seq : int;
  mutable sent : int;
  mutable stalls : int;
}

let rec tick t () =
  let now = Sim.Scheduler.now t.sched in
  let expired =
    match t.stop_at with Some s -> Sim.Time.(now >= s) | None -> false
  in
  if not expired then begin
    let pkt =
      Netsim.Packet.make
        ~id:(Netsim.Packet.Id_source.next t.ids)
        ~flow:t.flow ~src:(Netsim.Host.id t.host) ~dst:t.dst ~created:now
        (Proto.Payload.Udp { seq = t.seq; payload_len = t.payload_bytes })
    in
    t.seq <- t.seq + 1;
    (match Netsim.Host.send t.host pkt with
    | `Sent -> t.sent <- t.sent + 1
    | `Stalled -> t.stalls <- t.stalls + 1);
    ignore (Sim.Scheduler.after t.sched t.period (tick t))
  end

let start ~host ~dst ~flow ~ids ~rate ?(packet_bytes = 1000) ?stop_at () =
  assert (rate > 0.);
  let wire = packet_bytes + 28 in
  let period = Sim.Units.tx_time rate ~bytes:wire in
  let t =
    {
      host;
      sched = Netsim.Host.scheduler host;
      dst;
      flow;
      ids;
      payload_bytes = packet_bytes;
      period;
      stop_at;
      seq = 0;
      sent = 0;
      stalls = 0;
    }
  in
  tick t ();
  t

let packets_sent t = t.sent
let packets_stalled t = t.stalls
