type flag = Syn | Fin | Rst | Ece | Cwr

type t = {
  src_port : int;
  dst_port : int;
  seq : Seqno.t;
  ack : Seqno.t;
  is_ack : bool;
  flags : flag list;
  wnd : int;
  payload_len : int;
  sack_blocks : (Seqno.t * Seqno.t) list;
  ts_val : Sim.Time.t;
  ts_ecr : Sim.Time.t;
}

let header_bytes = 40
let wire_size t = t.payload_len + header_bytes

let has_flag t f = List.mem f t.flags

let data_end t =
  let virtual_len =
    t.payload_len + (if has_flag t Syn then 1 else 0)
    + if has_flag t Fin then 1 else 0
  in
  Seqno.add t.seq virtual_len

