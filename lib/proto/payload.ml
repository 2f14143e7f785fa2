type t =
  | Tcp of Tcp_header.t
  | Udp of { seq : int; payload_len : int }

let udp_header_bytes = 28

let wire_size = function
  | Tcp h -> Tcp_header.wire_size h
  | Udp { payload_len; _ } -> payload_len + udp_header_bytes
