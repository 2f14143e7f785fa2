type t = {
  sched : Sim.Scheduler.t;
  disc : Queue_disc.t;
  cap : int;
  gauge : Sim.Stats.Time_weighted.t;
  mutable stall_count : int;
  mutable space_hooks : (unit -> unit) list;
  mutable tracer : Trace.t option;
  mutable trace_src : int;
}

let create sched ~capacity ?red_ecn () =
  let disc =
    match red_ecn with
    | None -> Queue_disc.droptail ~capacity_packets:capacity ()
    | Some (params, link_rate) ->
        Queue_disc.red ~ecn:true ~capacity_packets:capacity ~link_rate params
  in
  {
    sched;
    disc;
    cap = capacity;
    gauge =
      Sim.Stats.Time_weighted.create ~now:(Sim.Scheduler.now sched) ~init:0.;
    stall_count = 0;
    space_hooks = [];
    tracer = None;
    trace_src = 0;
  }

let set_tracer t ?(src = 0) tracer =
  t.tracer <- tracer;
  t.trace_src <- src

let queue t = t.disc
let occupancy t = Queue_disc.length t.disc
let capacity t = t.cap
let stalls t = t.stall_count

let record t =
  Sim.Stats.Time_weighted.set t.gauge ~now:(Sim.Scheduler.now t.sched)
    (float_of_int (occupancy t))

let trace t ~code ~arg1 ~arg2 =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr
        ~time_ns:(Sim.Time.to_ns_int (Sim.Scheduler.now t.sched))
        ~code ~src:t.trace_src ~arg1 ~arg2

let try_enqueue t pkt =
  match Queue_disc.enqueue t.disc ~now:(Sim.Scheduler.now t.sched) pkt with
  | Ok () ->
      record t;
      trace t ~code:Trace.Code.ifq_enqueue ~arg1:(occupancy t)
        ~arg2:pkt.Packet.flow;
      true
  | Error _ ->
      t.stall_count <- t.stall_count + 1;
      trace t ~code:Trace.Code.ifq_stall ~arg1:t.stall_count
        ~arg2:pkt.Packet.flow;
      false

let on_space t hook = t.space_hooks <- hook :: t.space_hooks

let note_dequeue t =
  let was_full = occupancy t + 1 >= t.cap in
  record t;
  if was_full then List.iter (fun hook -> hook ()) (List.rev t.space_hooks)

let mean_occupancy t =
  Sim.Stats.Time_weighted.mean t.gauge ~now:(Sim.Scheduler.now t.sched)

let peak_occupancy t = Sim.Stats.Time_weighted.max t.gauge
