(** TCP segment header as carried inside simulator packets.

    Only fields the model consumes are represented. The timestamp option
    carries the simulated send time of the segment that an ACK echoes,
    which gives Karn-safe RTT samples. *)

type flag =
  | Syn
  | Fin
  | Rst
  | Ece  (** ECN-echo: receiver saw a CE mark (RFC 3168) *)
  | Cwr  (** sender reduced its window in response to ECE *)

type t = {
  src_port : int;
  dst_port : int;
  seq : Seqno.t;          (** first payload byte (or SYN/FIN seqno) *)
  ack : Seqno.t;          (** next byte expected; valid when [is_ack] *)
  is_ack : bool;
  flags : flag list;
  wnd : int;              (** advertised receive window, bytes *)
  payload_len : int;      (** bytes of data carried *)
  sack_blocks : (Seqno.t * Seqno.t) list;
      (** up to 4 blocks, each [start, stop) in receiver order *)
  ts_val : Sim.Time.t;    (** sender clock when this segment left *)
  ts_ecr : Sim.Time.t;    (** echoed peer timestamp (Time.zero if none) *)
}

val wire_size : t -> int
(** [payload_len] plus 40 bytes of IP + TCP header (typical options
    included). *)

val data_end : t -> Seqno.t
(** Sequence number just past the payload (accounting SYN/FIN as one).
    No code calls it; only the [proto.seqno] test "data_end with flags"
    does. *)

val has_flag : t -> flag -> bool
