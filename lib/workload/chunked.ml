type t = {
  conn : Tcp.Connection.t;
  sched : Sim.Scheduler.t;
  chunk_bytes : int;
  interval : Sim.Time.t;
  limit : int option;
  mutable issued : int;
}

let rec schedule_next t =
  ignore
    (Sim.Scheduler.after t.sched t.interval (fun () ->
         let expired =
           match t.limit with Some n -> t.issued >= n | None -> false
         in
         if not expired then begin
           Tcp.Sender.supply t.conn.Tcp.Connection.sender t.chunk_bytes;
           t.issued <- t.issued + 1;
           schedule_next t
         end))

let start ~src ~dst ~flow ~ids ?rx_ids ~chunk_bytes ~interval ?chunks ?config
    ?slow_start ?cong_avoid () =
  assert (chunk_bytes > 0 && Sim.Time.is_positive interval);
  let conn =
    Tcp.Connection.establish ~src ~dst ~flow ~ids ?rx_ids ?config ?slow_start
      ?cong_avoid ~bytes:chunk_bytes ()
  in
  let t =
    {
      conn;
      sched = Netsim.Host.scheduler src;
      chunk_bytes;
      interval;
      limit = chunks;
      issued = 1;
    }
  in
  schedule_next t;
  t

let sender t = t.conn.Tcp.Connection.sender
let receiver t = t.conn.Tcp.Connection.receiver
let chunks_issued t = t.issued
