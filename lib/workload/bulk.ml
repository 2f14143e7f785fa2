type t = { conn : Tcp.Connection.t; mutable finished_at : Sim.Time.t option }

let start ~src ~dst ~flow ~ids ?rx_ids ?config ?slow_start ?cong_avoid ?bytes
    () =
  (* Completion fires on the receiver's side, so it must be stamped from
     the receiver host's clock — the sender's clock too on a single
     scheduler, and the only well-defined one when the two hosts live on
     different partitions. *)
  let dst_sched = Netsim.Host.scheduler dst in
  let conn =
    Tcp.Connection.establish ~src ~dst ~flow ~ids ?rx_ids ?config ?slow_start
      ?cong_avoid ?bytes ()
  in
  let t = { conn; finished_at = None } in
  (match bytes with
  | Some n ->
      Tcp.Receiver.expect conn.Tcp.Connection.receiver ~bytes:n (fun () ->
          t.finished_at <- Some (Sim.Scheduler.now dst_sched))
  | None -> ());
  t

let sender t = t.conn.Tcp.Connection.sender
let receiver t = t.conn.Tcp.Connection.receiver
let completion_time t = t.finished_at
