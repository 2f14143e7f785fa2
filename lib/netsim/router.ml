type port = { disc : Queue_disc.t; pnic : Nic.t }

type t = {
  sched : Sim.Scheduler.t;
  routes : (int, port) Hashtbl.t;
  mutable forwarded_count : int;
  mutable dropped_count : int;
  mutable no_route_count : int;
}

let create sched =
  {
    sched;
    routes = Hashtbl.create 8;
    forwarded_count = 0;
    dropped_count = 0;
    no_route_count = 0;
  }

let add_port t ~queue ~rate ~link =
  let pnic = Nic.create t.sched ~rate ~queue in
  Nic.attach pnic link;
  { disc = queue; pnic }

let route t ~dst port = Hashtbl.replace t.routes dst port

let deliver t pkt =
  match Hashtbl.find_opt t.routes pkt.Packet.dst with
  | None -> t.no_route_count <- t.no_route_count + 1
  | Some port -> (
      match
        Queue_disc.enqueue port.disc ~now:(Sim.Scheduler.now t.sched) pkt
      with
      | Ok () ->
          t.forwarded_count <- t.forwarded_count + 1;
          Nic.kick port.pnic
      | Error _ -> t.dropped_count <- t.dropped_count + 1)

let forwarded t = t.forwarded_count
let dropped t = t.dropped_count
let no_route t = t.no_route_count
