type drop_reason = Full | Red_early | Red_forced

type red_params = {
  min_th : float;
  max_th : float;
  max_p : float;
  weight : float;
}

let default_red = { min_th = 5.; max_th = 15.; max_p = 0.1; weight = 0.002 }

type red_state = {
  params : red_params;
  link_rate : Sim.Units.rate;
  ecn : bool;
  mutable avg : float;
  mutable count : int;        (* packets since last early drop *)
  mutable idle_since : Sim.Time.t option;
  mutable marks : int;
  rng : Sim.Rng.t;
}

type discipline = Droptail | Red of red_state

type t = {
  discipline : discipline;
  capacity_packets : int;
  capacity_bytes : int option;
  items : Packet.t Queue.t;
  mutable bytes : int;
  mutable drop_hook : (Packet.t -> drop_reason -> unit) option;
}

let droptail ?capacity_bytes ~capacity_packets () =
  if capacity_packets <= 0 then
    invalid_arg "Queue_disc.droptail: capacity must be positive";
  {
    discipline = Droptail;
    capacity_packets;
    capacity_bytes;
    items = Queue.create ();
    bytes = 0;
    drop_hook = None;
  }

let red ?(ecn = false) ~capacity_packets ~link_rate params =
  if capacity_packets <= 0 then
    invalid_arg "Queue_disc.red: capacity must be positive";
  {
    discipline =
      Red
        {
          params;
          link_rate;
          ecn;
          avg = 0.;
          count = 0;
          idle_since = None;
          marks = 0;
          rng = Sim.Rng.of_seed 0x52ED;
        };
    capacity_packets;
    capacity_bytes = None;
    items = Queue.create ();
    bytes = 0;
    drop_hook = None;
  }

let length t = Queue.length t.items
let byte_length t = t.bytes

let is_full t =
  Queue.length t.items >= t.capacity_packets
  ||
  match t.capacity_bytes with
  | Some cap -> t.bytes >= cap
  | None -> false

let set_drop_hook t hook = t.drop_hook <- Some hook

let reject t pkt reason =
  (match t.drop_hook with Some hook -> hook pkt reason | None -> ());
  Error reason

let accept t pkt =
  Queue.add pkt t.items;
  t.bytes <- t.bytes + Packet.size pkt;
  Ok ()

(* The steady-state RED curve — Floyd & Jacobson's piecewise-linear
   drop probability with the gentle extension, without the per-burst
   count correction (which averages out over many arrivals). Shared by
   the packet-level discipline below, the fluid many-flows engine and
   the mean-field oracle, so all three see the same p(avg). *)
let red_drop_probability p ~avg =
  if avg < p.min_th then 0.
  else if avg >= 2. *. p.max_th then 1.
  else if avg < p.max_th then
    p.max_p *. (avg -. p.min_th) /. (p.max_th -. p.min_th)
  else p.max_p +. ((1. -. p.max_p) *. (avg -. p.max_th) /. p.max_th)

(* RED per Floyd & Jacobson 1993, with the "gentle" extension between
   max_th and 2*max_th. The average is updated on every arrival; after
   an idle period it decays as if the queue had drained at line rate. *)
let red_decide t s ~now =
  let q = float_of_int (Queue.length t.items) in
  (match s.idle_since with
  | Some since when Queue.is_empty t.items ->
      let idle = Sim.Time.to_sec (Sim.Time.sub now since) in
      let pkt_time = 1500. *. 8. /. s.link_rate in
      let m = idle /. pkt_time in
      s.avg <- s.avg *. ((1. -. s.params.weight) ** m);
      s.idle_since <- None
  | _ -> ());
  s.avg <- ((1. -. s.params.weight) *. s.avg) +. (s.params.weight *. q);
  if s.avg < s.params.min_th then begin
    s.count <- 0;
    `Accept
  end
  else if s.avg >= 2. *. s.params.max_th then `Drop Red_forced
  else begin
    let pb = red_drop_probability s.params ~avg:s.avg in
    s.count <- s.count + 1;
    let pa =
      let denom = 1. -. (float_of_int s.count *. pb) in
      if denom <= 0. then 1. else pb /. denom
    in
    if Sim.Rng.float s.rng < pa then begin
      s.count <- 0;
      `Drop Red_early
    end
    else `Accept
  end

let enqueue t ~now pkt =
  match t.discipline with
  | Droptail -> if is_full t then reject t pkt Full else accept t pkt
  | Red s -> (
      if is_full t then reject t pkt Full
      else
        match red_decide t s ~now with
        | `Accept -> accept t pkt
        | `Drop Red_early when s.ecn ->
            (* Marking mode: signal congestion without losing the
               packet (RFC 3168 §5). *)
            pkt.Packet.ecn_ce <- true;
            s.marks <- s.marks + 1;
            accept t pkt
        | `Drop reason -> reject t pkt reason)

let dequeue t ~now =
  match Queue.take_opt t.items with
  | None -> None
  | Some pkt ->
      t.bytes <- t.bytes - Packet.size pkt;
      (match t.discipline with
      | Red s when Queue.is_empty t.items -> s.idle_since <- Some now
      | Red _ | Droptail -> ());
      Some pkt

let ecn_marks t =
  match t.discipline with Red s -> s.marks | Droptail -> 0
