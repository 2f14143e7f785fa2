(** Transport payload of a simulator packet. *)

type t =
  | Tcp of Tcp_header.t
  | Udp of { seq : int; payload_len : int }
      (** unreliable datagram, used by cross-traffic generators *)

val wire_size : t -> int
(** Total transport bytes (payload plus header overhead). *)
