type t = { sender : Sender.t; receiver : Receiver.t; flow : int }

let establish ~src ~dst ~flow ~ids ?rx_ids ?config ?slow_start ?cong_avoid
    ?bytes () =
  (* [rx_ids] exists for partitioned runs: the receiver lives on [dst]'s
     partition and must label its ACKs from an id source owned there,
     never racing the sender's. Single-partition callers share one
     source, as always. *)
  let rx_ids = match rx_ids with Some r -> r | None -> ids in
  let receiver = Receiver.create ~host:dst ~flow ~ids:rx_ids ?config () in
  let sender =
    Sender.create ~host:src ~dst:(Netsim.Host.id dst) ~flow ~ids ?config
      ?slow_start ?cong_avoid ()
  in
  Sender.start sender ?bytes ();
  { sender; receiver; flow }
