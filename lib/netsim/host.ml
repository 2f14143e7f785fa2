type t = {
  host_id : int;
  sched : Sim.Scheduler.t;
  host_ifq : Ifq.t;
  host_nic : Nic.t;
  handlers : (int, Packet.t -> unit) Hashtbl.t;
  mutable rx_packet_count : int;
}

let create sched ~id ~nic_rate ~ifq_capacity ?ifq_red_ecn () =
  let red_ecn = Option.map (fun p -> (p, nic_rate)) ifq_red_ecn in
  let host_ifq = Ifq.create sched ~capacity:ifq_capacity ?red_ecn () in
  let host_nic = Nic.create sched ~rate:nic_rate ~queue:(Ifq.queue host_ifq) in
  Nic.set_dequeue_hook host_nic (fun _pkt -> Ifq.note_dequeue host_ifq);
  {
    host_id = id;
    sched;
    host_ifq;
    host_nic;
    handlers = Hashtbl.create 8;
    rx_packet_count = 0;
  }

let id t = t.host_id
let scheduler t = t.sched
let ifq t = t.host_ifq
let nic t = t.host_nic
let attach_uplink t link = Nic.attach t.host_nic link

let send t pkt =
  if Ifq.try_enqueue t.host_ifq pkt then begin
    Nic.kick t.host_nic;
    `Sent
  end
  else `Stalled

let register_flow t ~flow handler = Hashtbl.replace t.handlers flow handler
let unregister_flow t ~flow = Hashtbl.remove t.handlers flow

let deliver t pkt =
  t.rx_packet_count <- t.rx_packet_count + 1;
  match Hashtbl.find_opt t.handlers pkt.Packet.flow with
  | Some handler -> handler pkt
  | None -> ()

let rx_packets t = t.rx_packet_count
