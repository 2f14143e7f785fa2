type t = {
  id : int;
  flow : int;
  src : int;
  dst : int;
  created : Sim.Time.t;
  payload : Proto.Payload.t;
  mutable ecn_ce : bool;
}

let make ~id ~flow ~src ~dst ~created payload =
  { id; flow; src; dst; created; payload; ecn_ce = false }

let placeholder =
  make ~id:(-1) ~flow:(-1) ~src:(-1) ~dst:(-1) ~created:Sim.Time.zero
    (Proto.Payload.Udp { seq = 0; payload_len = 0 })

let size t = Proto.Payload.wire_size t.payload

module Id_source = struct
  type source = { mutable next_id : int }

  let create () = { next_id = 0 }

  let next s =
    let id = s.next_id in
    s.next_id <- id + 1;
    id
end
