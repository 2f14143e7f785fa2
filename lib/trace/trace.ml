(* Bounded ring-buffer event tracer + run-wide metrics registry.

   Record layout: stride-4 slices of one preallocated int array,
   [| time_ns; (src lsl 8) lor code; arg1; arg2 |]. Everything is an
   immediate int, so emit never allocates and the ring never holds
   pointers into model state. *)

module Code = struct
  let cat_sched = 1
  let cat_link = 2
  let cat_ifq = 4
  let cat_nic = 8
  let cat_tcp = 16
  let all_categories = cat_sched lor cat_link lor cat_ifq lor cat_nic lor cat_tcp
  let default_mask = all_categories land lnot cat_sched

  let category_name bit =
    if bit = cat_sched then "sched"
    else if bit = cat_link then "link"
    else if bit = cat_ifq then "ifq"
    else if bit = cat_nic then "nic"
    else if bit = cat_tcp then "tcp"
    else "?"

  let sched_dispatch = 0
  let link_tx = 1
  let link_drop = 2
  let link_deliver = 3
  let ifq_enqueue = 4
  let ifq_stall = 5
  let nic_tx = 6
  let tcp_send_stall = 7
  let tcp_cwnd = 8
  let tcp_retransmit = 9
  let tcp_fast_retransmit = 10
  let tcp_rto = 11
  let count = 12

  let names =
    [| "sched.dispatch"; "link.tx"; "link.drop"; "link.deliver"; "ifq.enqueue";
       "ifq.stall"; "nic.tx"; "tcp.send_stall"; "tcp.cwnd"; "tcp.retransmit";
       "tcp.fast_retransmit"; "tcp.rto" |]

  (* Indexed by code; emit reads this on every call, so it stays a flat
     int array. *)
  let categories =
    [| cat_sched; cat_link; cat_link; cat_link; cat_ifq; cat_ifq; cat_nic;
       cat_tcp; cat_tcp; cat_tcp; cat_tcp; cat_tcp |]

  let check code =
    if code < 0 || code >= count then
      invalid_arg (Printf.sprintf "Trace.Code: unknown code %d" code)

  let name code =
    check code;
    names.(code)

  let category code =
    check code;
    categories.(code)

  let is_counter code =
    check code;
    code = tcp_cwnd
end

type t = {
  buf : int array; (* capacity * 4 ints *)
  cap : int;
  mutable mask : int;
  mutable head : int; (* next record slot, in records *)
  mutable len : int; (* retained records *)
  mutable total : int; (* accepted records since creation/clear *)
}

let stride = 4

let create ?(capacity = 65536) ?(mask = Code.default_mask) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { buf = Array.make (capacity * stride) 0; cap = capacity; mask; head = 0; len = 0; total = 0 }

let set_mask t m = t.mask <- m
let capacity t = t.cap
let length t = t.len
let total t = t.total
let dropped t = t.total - t.len

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.total <- 0

let emit t ~time_ns ~code ~src ~arg1 ~arg2 =
  if t.mask land Array.unsafe_get Code.categories code <> 0 then begin
    let base = t.head * stride in
    let buf = t.buf in
    Array.unsafe_set buf base time_ns;
    Array.unsafe_set buf (base + 1) ((src lsl 8) lor code);
    Array.unsafe_set buf (base + 2) arg1;
    Array.unsafe_set buf (base + 3) arg2;
    let head = t.head + 1 in
    t.head <- (if head = t.cap then 0 else head);
    if t.len < t.cap then t.len <- t.len + 1;
    t.total <- t.total + 1
  end

let iter t f =
  let start = (t.head - t.len + t.cap) mod t.cap in
  for i = 0 to t.len - 1 do
    let base = (start + i) mod t.cap * stride in
    let packed = t.buf.(base + 1) in
    f ~time_ns:t.buf.(base) ~code:(packed land 0xff) ~src:(packed lsr 8)
      ~arg1:t.buf.(base + 2) ~arg2:t.buf.(base + 3)
  done

module Registry = struct
  type probe = unit -> float

  type registry = {
    table : (string, probe) Hashtbl.t;
    mutable order : string list; (* reversed registration order *)
  }

  let create () = { table = Hashtbl.create 64; order = [] }

  let register r ~name probe =
    if Hashtbl.mem r.table name then
      invalid_arg (Printf.sprintf "Trace.Registry.register: duplicate metric %S" name);
    Hashtbl.add r.table name probe;
    r.order <- name :: r.order

  let names r = List.rev r.order

  let sample r =
    let ns = names r in
    let out = Array.make (List.length ns) 0. in
    List.iteri (fun i n -> out.(i) <- (Hashtbl.find r.table n) ()) ns;
    out
end
