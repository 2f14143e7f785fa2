type completed = {
  flow : int;
  size : int;
  started : Sim.Time.t;
  finished : Sim.Time.t;
}

type t = {
  src : Netsim.Host.t;
  dst : Netsim.Host.t;
  sched : Sim.Scheduler.t;
  ids : Netsim.Packet.Id_source.source;
  rng : Sim.Rng.t;
  arrival_rate : float;
  mean_size : int;
  pareto_shape : float;
  config : Tcp.Config.t;
  policy : unit -> Tcp.Policy.t;
  stop_at : Sim.Time.t option;
  mutable next_flow : int;
  mutable launched : int;
  mutable finished : completed list; (* newest first *)
}

let draw_size t =
  (* Pareto with the requested mean: scale = mean·(shape−1)/shape. *)
  let shape = t.pareto_shape in
  let scale = float_of_int t.mean_size *. (shape -. 1.) /. shape in
  let s = Sim.Rng.pareto t.rng ~shape ~scale in
  Int.max 1 (int_of_float s)

let launch t =
  let flow = t.next_flow in
  t.next_flow <- flow + 1;
  t.launched <- t.launched + 1;
  let size = draw_size t in
  let started = Sim.Scheduler.now t.sched in
  let p = t.policy () in
  let conn =
    Tcp.Connection.establish ~src:t.src ~dst:t.dst ~flow ~ids:t.ids
      ~config:t.config ~slow_start:p.Tcp.Policy.slow_start
      ~cong_avoid:p.Tcp.Policy.cong_avoid ~bytes:size ()
  in
  Tcp.Receiver.expect conn.Tcp.Connection.receiver ~bytes:size (fun () ->
      t.finished <-
        { flow; size; started; finished = Sim.Scheduler.now t.sched }
        :: t.finished;
      (* Release demux entries so long runs don't accumulate handlers. *)
      Netsim.Host.unregister_flow t.dst ~flow;
      Netsim.Host.unregister_flow t.src ~flow)

let rec arrival t () =
  let now = Sim.Scheduler.now t.sched in
  let expired =
    match t.stop_at with Some s -> Sim.Time.(now >= s) | None -> false
  in
  if not expired then begin
    launch t;
    let gap = Sim.Rng.exponential t.rng ~mean:(1. /. t.arrival_rate) in
    ignore (Sim.Scheduler.after t.sched (Sim.Time.of_sec gap) (arrival t))
  end

let start ~src ~dst ~ids ~rng ~arrival_rate ?(mean_size = 30 * 1024)
    ?(pareto_shape = 1.2) ?(first_flow = 10_000)
    ?(config = Tcp.Config.default)
    ?(policy = fun () -> Result.get_ok (Tcp.Policy.by_name "standard"))
    ?stop_at () =
  assert (arrival_rate > 0.);
  let t =
    {
      src;
      dst;
      sched = Netsim.Host.scheduler src;
      ids;
      rng;
      arrival_rate;
      mean_size;
      pareto_shape;
      config;
      policy;
      stop_at;
      next_flow = first_flow;
      launched = 0;
      finished = [];
    }
  in
  let first_gap = Sim.Rng.exponential rng ~mean:(1. /. arrival_rate) in
  ignore (Sim.Scheduler.after t.sched (Sim.Time.of_sec first_gap) (arrival t));
  t

let launched t = t.launched
let completions t = List.rev t.finished
