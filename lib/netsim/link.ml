type t = {
  sched : Sim.Scheduler.t;
  prop_delay : Sim.Time.t;
  loss_rate : float;
  rng : Sim.Rng.t;
  mutable sink : (Packet.t -> unit) option;
  mutable taps : (Sim.Time.t -> Packet.t -> unit) array;
  mutable drop_filter : (Packet.t -> bool) option;
  mutable fault_hook : (Sim.Time.t -> Packet.t -> Sim.Time.t list) option;
  mutable delivered_count : int;
  mutable lost_count : int;
  mutable dup_count : int;
  mutable flying : int;
  mutable tracer : Trace.t option;
  mutable trace_src : int;
  (* Remote mode: the link crosses a partition boundary. Transmit-side
     decisions (taps, drop filter, corruption, fault hook) still run on
     the owning partition; the surviving copies are handed to [remote]
     with their absolute due time instead of being scheduled locally.
     Counter discipline is single-writer per side: the transmit side
     writes [lost_count]/[dup_count]/[remote_handed], the delivery side
     writes [delivered_count], and both are only read together at
     synchronization barriers. *)
  mutable remote : (due:Sim.Time.t -> Packet.t -> unit) option;
  mutable remote_handed : int;
  (* Undelayed copies in flight, oldest first: a ring (power-of-two
     capacity) of packets with the (due, birth, seq) key reserved for
     each at transmit, due being birth + [prop_delay]. Their keys are
     in FIFO order, so only the oldest needs a heap entry:
     [deliver_head] is armed under its key and, when it fires, arms
     the next. A delivered slot holds [Packet.placeholder], so the ring
     keeps no delivered packet alive. *)
  mutable fifo_pkts : Packet.t array;
  mutable fifo_birth : Sim.Time.t array;
  mutable fifo_seq : int array;
  mutable fifo_head : int;
  mutable fifo_len : int;
  mutable deliver_head : unit -> unit;
}

let trace t ~code pkt =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr
        ~time_ns:(Sim.Time.to_ns_int (Sim.Scheduler.now t.sched))
        ~code ~src:t.trace_src ~arg1:pkt.Packet.flow ~arg2:(Packet.size pkt)

(* A copy reaches the far end. *)
let arrive t pkt =
  t.flying <- t.flying - 1;
  t.delivered_count <- t.delivered_count + 1;
  trace t ~code:Trace.Code.link_deliver pkt;
  match t.sink with Some s -> s pkt | None -> ()

let arm_head t =
  let i = t.fifo_head in
  let birth = t.fifo_birth.(i) in
  ignore
    (Sim.Scheduler.at_reserved t.sched ~birth ~seq:t.fifo_seq.(i)
       (Sim.Time.add birth t.prop_delay) t.deliver_head)

let deliver_head t =
  let i = t.fifo_head in
  let pkt = t.fifo_pkts.(i) in
  t.fifo_pkts.(i) <- Packet.placeholder;
  t.fifo_head <- (i + 1) land (Array.length t.fifo_pkts - 1);
  t.fifo_len <- t.fifo_len - 1;
  if t.fifo_len > 0 then arm_head t;
  arrive t pkt

let create sched ~delay ?(loss_rate = 0.) ?rng () =
  if Sim.Time.is_negative delay then
    invalid_arg
      (Format.asprintf "Link.create: delay %a must be non-negative" Sim.Time.pp
         delay);
  if not (loss_rate >= 0. && loss_rate <= 1.) then
    invalid_arg
      (Printf.sprintf "Link.create: loss_rate %g outside [0, 1]" loss_rate);
  (* Without an explicit rng each link gets its own stream derived from
     the scheduler-wide seed, so two lossy links never share loss
     decisions (they used to collapse onto one fixed-seed stream). *)
  let rng =
    match rng with Some r -> r | None -> Sim.Scheduler.derive_rng sched
  in
  let t =
    {
      sched;
      prop_delay = delay;
      loss_rate;
      rng;
      sink = None;
      taps = [||];
      drop_filter = None;
      fault_hook = None;
      delivered_count = 0;
      lost_count = 0;
      dup_count = 0;
      flying = 0;
      tracer = None;
      trace_src = 0;
      remote = None;
      remote_handed = 0;
      fifo_pkts = [||];
      fifo_birth = [||];
      fifo_seq = [||];
      fifo_head = 0;
      fifo_len = 0;
      deliver_head = ignore;
    }
  in
  t.deliver_head <- (fun () -> deliver_head t);
  t

let connect t sink = t.sink <- Some sink
let set_remote t push = t.remote <- Some push

let set_tracer t ?(src = 0) tracer =
  t.tracer <- tracer;
  t.trace_src <- src

(* Registration order is observation order. Copy-on-add keeps the hot
   transmit path a flat array walk; taps are only added at setup time. *)
let add_tap t tap =
  let n = Array.length t.taps in
  let taps = Array.make (n + 1) tap in
  Array.blit t.taps 0 taps 0 n;
  t.taps <- taps
let set_drop_filter t f = t.drop_filter <- Some f
let set_fault_hook t h = t.fault_hook <- Some h

(* Double the ring, unrolling it so the oldest copy sits at index 0. *)
let grow_fifo t =
  let cap = Array.length t.fifo_pkts in
  let cap' = Int.max 8 (2 * cap) in
  let pkts = Array.make cap' Packet.placeholder
  and birth = Array.make cap' Sim.Time.zero
  and seq = Array.make cap' 0 in
  for k = 0 to t.fifo_len - 1 do
    let j = (t.fifo_head + k) land (cap - 1) in
    pkts.(k) <- t.fifo_pkts.(j);
    birth.(k) <- t.fifo_birth.(j);
    seq.(k) <- t.fifo_seq.(j)
  done;
  t.fifo_pkts <- pkts;
  t.fifo_birth <- birth;
  t.fifo_seq <- seq;
  t.fifo_head <- 0

(* Reserve the key the copy's own event would have had, and queue it. *)
let enqueue t pkt =
  let now = Sim.Scheduler.now t.sched in
  let seq = Sim.Scheduler.reserve t.sched in
  if t.fifo_len = Array.length t.fifo_pkts then grow_fifo t;
  let i = (t.fifo_head + t.fifo_len) land (Array.length t.fifo_pkts - 1) in
  t.fifo_pkts.(i) <- pkt;
  t.fifo_birth.(i) <- now;
  t.fifo_seq.(i) <- seq;
  t.fifo_len <- t.fifo_len + 1;
  if t.fifo_len = 1 then arm_head t

(* The copy's delay selects its path: an undelayed copy joins the FIFO,
   a copy the fault hook delays keeps an event of its own. *)
let deliver_after t pkt extra =
  let delay = Sim.Time.add t.prop_delay (Sim.Time.max extra Sim.Time.zero) in
  match t.remote with
  | Some push ->
      t.remote_handed <- t.remote_handed + 1;
      push ~due:(Sim.Time.add (Sim.Scheduler.now t.sched) delay) pkt
  | None ->
      t.flying <- t.flying + 1;
      if Sim.Time.is_positive extra then
        ignore (Sim.Scheduler.after t.sched delay (fun () -> arrive t pkt))
      else enqueue t pkt

(* Destination-partition half of a remote link: the channel handler
   calls this at the packet's due time, mirroring exactly what the
   local delivery event does. *)
let remote_deliver t pkt =
  t.delivered_count <- t.delivered_count + 1;
  (match t.sink with
  | Some s -> s pkt
  | None -> invalid_arg "Link.remote_deliver: link not connected")

let transmit t pkt =
  (match (t.sink, t.remote) with
  | None, None -> invalid_arg "Link.transmit: link not connected"
  | _ -> ());
  let now = Sim.Scheduler.now t.sched in
  for i = 0 to Array.length t.taps - 1 do
    t.taps.(i) now pkt
  done;
  trace t ~code:Trace.Code.link_tx pkt;
  let filtered =
    match t.drop_filter with Some f -> f pkt | None -> false
  in
  if filtered || (t.loss_rate > 0. && Sim.Rng.float t.rng < t.loss_rate)
  then begin
    t.lost_count <- t.lost_count + 1;
    trace t ~code:Trace.Code.link_drop pkt
  end
  else
    match t.fault_hook with
    | None -> deliver_after t pkt Sim.Time.zero
    | Some hook -> (
        match hook now pkt with
        | [] ->
            t.lost_count <- t.lost_count + 1;
            trace t ~code:Trace.Code.link_drop pkt
        | [ extra ] -> deliver_after t pkt extra
        | extras ->
            t.dup_count <- t.dup_count + List.length extras - 1;
            List.iter (deliver_after t pkt) extras)

let delay t = t.prop_delay
let delivered t = t.delivered_count
let lost t = t.lost_count
let duplicated t = t.dup_count

let in_flight t =
  match t.remote with
  | None -> t.flying
  | Some _ -> t.remote_handed - t.delivered_count
