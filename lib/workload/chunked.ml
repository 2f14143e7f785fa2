type t = {
  snd : Tcp.Sender.t;
  rcv : Tcp.Receiver.t;
  sched : Sim.Scheduler.t;
  chunk_bytes : int;
  interval : Sim.Time.t;
  limit : int option;
  mutable issued : int;
  mutable running : bool;
}

let rec schedule_next t =
  ignore
    (Sim.Scheduler.after t.sched t.interval (fun () ->
         let expired =
           match t.limit with Some n -> t.issued >= n | None -> false
         in
         if t.running && not expired then begin
           Tcp.Sender.supply t.snd t.chunk_bytes;
           t.issued <- t.issued + 1;
           schedule_next t
         end))

let start ~src ~dst ~flow ~ids ?rx_ids ~chunk_bytes ~interval ?chunks ?config
    ?slow_start ?cong_avoid () =
  assert (chunk_bytes > 0 && Sim.Time.is_positive interval);
  let sched = Netsim.Host.scheduler src in
  let rx_ids = match rx_ids with Some r -> r | None -> ids in
  let rcv = Tcp.Receiver.create ~host:dst ~flow ~ids:rx_ids ?config () in
  let snd =
    Tcp.Sender.create ~host:src ~dst:(Netsim.Host.id dst) ~flow ~ids ?config
      ?slow_start ?cong_avoid ()
  in
  Tcp.Sender.start snd ~bytes:chunk_bytes ();
  let t =
    {
      snd;
      rcv;
      sched;
      chunk_bytes;
      interval;
      limit = chunks;
      issued = 1;
      running = true;
    }
  in
  schedule_next t;
  t

let sender t = t.snd
let receiver t = t.rcv
let chunks_issued t = t.issued
let bytes_issued t = t.issued * t.chunk_bytes
let stop t = t.running <- false
