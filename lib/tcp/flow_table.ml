(* Flat structure-of-arrays per-flow state, PR-2 event-heap style: one
   table holds the numeric fast-path state of every flow as parallel
   unboxed arrays, and senders (or the flow-level many_flows engine)
   operate on a row index instead of a boxed per-flow record. Reading
   or writing a column is an array access — no pointer chase, no boxed
   float, no per-flow closure — so a million rows cost a handful of
   contiguous arrays (~16 words/flow) and scan at memory bandwidth.

   Rows are recycled through an intrusive free list threaded through
   the [una] column; [flags = -1] marks a free row, so a stale index is
   detectable. Column layout:

     floats  cwnd ssthresh              (bytes; IEEE-identical to the
                                         boxed fields they replace)
     ints    una nxt rwnd dupacks recover reaction_mark bytes_sent
             budget acct next_pace_ns last_send_ns rng timer flags

   [flags] packs the connection phase in bits 0-1 and the boolean
   latches above it; [timer] is the engine's timer bookkeeping (the
   many_flows engine links each round cohort's rows through it); [rng]
   is a per-flow xorshift state so flow-level engines can draw per-flow
   randomness without touching a shared stream. *)

(* flags layout *)
let phase_mask = 0b11
let stalled_bit = 1 lsl 2
let completed_bit = 1 lsl 3
let started_bit = 1 lsl 4
let cwr_bit = 1 lsl 5

type t = {
  mutable cap : int;
  mutable in_use : int;
  mutable free_head : int; (* threaded through [una]; -1 = none *)
  mutable cwnd : float array;
  mutable ssthresh : float array;
  mutable una : int array;
  mutable nxt : int array;
  mutable rwnd : int array;
  mutable dupacks : int array;
  mutable recover : int array;
  mutable reaction_mark : int array;
  mutable bytes_sent : int array;
  mutable budget : int array; (* remaining bytes; -1 = unbounded *)
  mutable acct : int array; (* delivered bytes (engine accounting) *)
  mutable next_pace_ns : int array;
  mutable last_send_ns : int array;
  mutable rng : int array; (* xorshift state, never 0 while in use *)
  mutable timer : int array; (* engine timer bookkeeping; -1 = none *)
  mutable flags : int array; (* -1 = free row *)
}

let create ?(initial_capacity = 16) () =
  let cap = Stdlib.max 1 initial_capacity in
  let t =
    {
      cap;
      in_use = 0;
      free_head = 0;
      cwnd = Array.make cap 0.;
      ssthresh = Array.make cap 0.;
      una = Array.make cap 0;
      nxt = Array.make cap 0;
      rwnd = Array.make cap 0;
      dupacks = Array.make cap 0;
      recover = Array.make cap 0;
      reaction_mark = Array.make cap 0;
      bytes_sent = Array.make cap 0;
      budget = Array.make cap (-1);
      acct = Array.make cap 0;
      next_pace_ns = Array.make cap 0;
      last_send_ns = Array.make cap 0;
      rng = Array.make cap 1;
      timer = Array.make cap (-1);
      flags = Array.make cap (-1);
    }
  in
  for i = 0 to cap - 1 do
    t.una.(i) <- (if i = cap - 1 then -1 else i + 1)
  done;
  t

let capacity t = t.cap
let in_use t = t.in_use

let grow t =
  let cap' = 2 * t.cap in
  let extf a =
    let a' = Array.make cap' 0. in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  let exti fill a =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  t.cwnd <- extf t.cwnd;
  t.ssthresh <- extf t.ssthresh;
  t.una <- exti 0 t.una;
  t.nxt <- exti 0 t.nxt;
  t.rwnd <- exti 0 t.rwnd;
  t.dupacks <- exti 0 t.dupacks;
  t.recover <- exti 0 t.recover;
  t.reaction_mark <- exti 0 t.reaction_mark;
  t.bytes_sent <- exti 0 t.bytes_sent;
  t.budget <- exti (-1) t.budget;
  t.acct <- exti 0 t.acct;
  t.next_pace_ns <- exti 0 t.next_pace_ns;
  t.last_send_ns <- exti 0 t.last_send_ns;
  t.rng <- exti 1 t.rng;
  t.timer <- exti (-1) t.timer;
  t.flags <- exti (-1) t.flags;
  for i = t.cap to cap' - 1 do
    t.una.(i) <- (if i = cap' - 1 then -1 else i + 1)
  done;
  t.free_head <- t.cap;
  t.cap <- cap'

let alloc t =
  if t.free_head < 0 then grow t;
  let i = t.free_head in
  t.free_head <- t.una.(i);
  t.in_use <- t.in_use + 1;
  t.cwnd.(i) <- 0.;
  t.ssthresh.(i) <- infinity;
  t.una.(i) <- 0;
  t.nxt.(i) <- 0;
  t.rwnd.(i) <- 0;
  t.dupacks.(i) <- 0;
  t.recover.(i) <- 0;
  t.reaction_mark.(i) <- 0;
  t.bytes_sent.(i) <- 0;
  t.budget.(i) <- -1;
  t.acct.(i) <- 0;
  t.next_pace_ns.(i) <- 0;
  t.last_send_ns.(i) <- 0;
  t.rng.(i) <- 1;
  t.timer.(i) <- -1;
  t.flags.(i) <- 0;
  i

let is_live t i = i >= 0 && i < t.cap && t.flags.(i) >= 0

let free t i =
  if not (is_live t i) then invalid_arg "Flow_table.free: dead row";
  t.flags.(i) <- -1;
  t.una.(i) <- t.free_head;
  t.free_head <- i;
  t.in_use <- t.in_use - 1

(* --- column accessors -------------------------------------------------- *)

let cwnd t i = Array.unsafe_get t.cwnd i
let set_cwnd t i v = Array.unsafe_set t.cwnd i v
let ssthresh t i = Array.unsafe_get t.ssthresh i
let set_ssthresh t i v = Array.unsafe_set t.ssthresh i v
let una t i = Array.unsafe_get t.una i
let set_una t i v = Array.unsafe_set t.una i v
let nxt t i = Array.unsafe_get t.nxt i
let set_nxt t i v = Array.unsafe_set t.nxt i v
let rwnd t i = Array.unsafe_get t.rwnd i
let set_rwnd t i v = Array.unsafe_set t.rwnd i v
let dupacks t i = Array.unsafe_get t.dupacks i
let set_dupacks t i v = Array.unsafe_set t.dupacks i v
let recover t i = Array.unsafe_get t.recover i
let set_recover t i v = Array.unsafe_set t.recover i v
let reaction_mark t i = Array.unsafe_get t.reaction_mark i
let set_reaction_mark t i v = Array.unsafe_set t.reaction_mark i v
let bytes_sent t i = Array.unsafe_get t.bytes_sent i
let set_bytes_sent t i v = Array.unsafe_set t.bytes_sent i v
let budget t i = Array.unsafe_get t.budget i
let set_budget t i v = Array.unsafe_set t.budget i v
let acct t i = Array.unsafe_get t.acct i
let set_acct t i v = Array.unsafe_set t.acct i v
let next_pace_ns t i = Array.unsafe_get t.next_pace_ns i
let set_next_pace_ns t i v = Array.unsafe_set t.next_pace_ns i v
let last_send_ns t i = Array.unsafe_get t.last_send_ns i
let set_last_send_ns t i v = Array.unsafe_set t.last_send_ns i v
let timer t i = Array.unsafe_get t.timer i
let set_timer t i v = Array.unsafe_set t.timer i v

(* --- phase and boolean latches ----------------------------------------- *)

let phase t i = Array.unsafe_get t.flags i land phase_mask

let set_phase t i p =
  let f = Array.unsafe_get t.flags i in
  Array.unsafe_set t.flags i ((f land lnot phase_mask) lor (p land phase_mask))

let get_bit t i bit = Array.unsafe_get t.flags i land bit <> 0

let set_bit t i bit v =
  let f = Array.unsafe_get t.flags i in
  Array.unsafe_set t.flags i (if v then f lor bit else f land lnot bit)

let stalled t i = get_bit t i stalled_bit
let set_stalled t i v = set_bit t i stalled_bit v
let completed t i = get_bit t i completed_bit
let set_completed t i v = set_bit t i completed_bit v
let started t i = get_bit t i started_bit
let set_started t i v = set_bit t i started_bit v
let cwr_pending t i = get_bit t i cwr_bit
let set_cwr_pending t i v = set_bit t i cwr_bit v

(* --- per-flow randomness ----------------------------------------------- *)

let seed_rng t i seed =
  let s = seed land max_int in
  t.rng.(i) <- (if s = 0 then 0x2545F4914F6CDD1D land max_int else s)

(* 62-bit xorshift; positive, never sticks at 0 for a nonzero seed. *)
let rng_next t i =
  let x = Array.unsafe_get t.rng i in
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land max_int in
  Array.unsafe_set t.rng i x;
  x

let rng_float t i =
  float_of_int (rng_next t i land ((1 lsl 53) - 1)) *. 0x1p-53

(* --- snapshot ----------------------------------------------------------- *)

(* Full-table serialization: every column at full capacity plus the
   three scalars. Free rows travel too — the free list is threaded
   through [una] and marked by [flags = -1] — so a restored table hands
   out the same rows in the same order as the original, which is what
   keeps post-resume allocations (and the per-row RNG streams seeded
   into them) byte-identical to an unbroken run. *)

let save t ~prefix w =
  let p name = prefix ^ name in
  Sim.Snapshot.put_int w (p "cap") t.cap;
  Sim.Snapshot.put_int w (p "in_use") t.in_use;
  Sim.Snapshot.put_int w (p "free_head") t.free_head;
  Sim.Snapshot.put_float_array w (p "cwnd") t.cwnd;
  Sim.Snapshot.put_float_array w (p "ssthresh") t.ssthresh;
  Sim.Snapshot.put_int_array w (p "una") t.una;
  Sim.Snapshot.put_int_array w (p "nxt") t.nxt;
  Sim.Snapshot.put_int_array w (p "rwnd") t.rwnd;
  Sim.Snapshot.put_int_array w (p "dupacks") t.dupacks;
  Sim.Snapshot.put_int_array w (p "recover") t.recover;
  Sim.Snapshot.put_int_array w (p "reaction_mark") t.reaction_mark;
  Sim.Snapshot.put_int_array w (p "bytes_sent") t.bytes_sent;
  Sim.Snapshot.put_int_array w (p "budget") t.budget;
  Sim.Snapshot.put_int_array w (p "acct") t.acct;
  Sim.Snapshot.put_int_array w (p "next_pace_ns") t.next_pace_ns;
  Sim.Snapshot.put_int_array w (p "last_send_ns") t.last_send_ns;
  Sim.Snapshot.put_int_array w (p "rng") t.rng;
  Sim.Snapshot.put_int_array w (p "timer") t.timer;
  Sim.Snapshot.put_int_array w (p "flags") t.flags

let restore t ~prefix r =
  let p name = prefix ^ name in
  let cap = Sim.Snapshot.get_int r (p "cap") in
  if cap <= 0 then raise (Sim.Snapshot.Corrupt "Flow_table: bad capacity");
  let ints name =
    let a = Sim.Snapshot.get_int_array r (p name) in
    if Array.length a <> cap then
      raise (Sim.Snapshot.Corrupt ("Flow_table: short column " ^ name));
    a
  in
  let floats name =
    let a = Sim.Snapshot.get_float_array r (p name) in
    if Array.length a <> cap then
      raise (Sim.Snapshot.Corrupt ("Flow_table: short column " ^ name));
    a
  in
  t.cap <- cap;
  t.in_use <- Sim.Snapshot.get_int r (p "in_use");
  t.free_head <- Sim.Snapshot.get_int r (p "free_head");
  t.cwnd <- floats "cwnd";
  t.ssthresh <- floats "ssthresh";
  t.una <- ints "una";
  t.nxt <- ints "nxt";
  t.rwnd <- ints "rwnd";
  t.dupacks <- ints "dupacks";
  t.recover <- ints "recover";
  t.reaction_mark <- ints "reaction_mark";
  t.bytes_sent <- ints "bytes_sent";
  t.budget <- ints "budget";
  t.acct <- ints "acct";
  t.next_pace_ns <- ints "next_pace_ns";
  t.last_send_ns <- ints "last_send_ns";
  t.rng <- ints "rng";
  t.timer <- ints "timer";
  t.flags <- ints "flags"

(* --- congestion-control hooks by row ----------------------------------- *)

let ca_on_ack t i (cc : Cong_avoid.t) ~newly_acked ~mss ~srtt ~min_rtt ~now =
  set_cwnd t i
    (cc.Cong_avoid.on_ack ~newly_acked ~cwnd:(cwnd t i) ~mss ~srtt ~min_rtt
       ~now)

let ca_on_round t i (cc : Cong_avoid.t) ~acks ~mss ~srtt =
  match cc.Cong_avoid.on_round with
  | Some on_round -> set_cwnd t i (on_round ~acks ~cwnd:(cwnd t i) ~mss ~srtt)
  | None ->
      invalid_arg
        (Printf.sprintf "Flow_table.ca_on_round: %S has no per-round rule"
           cc.Cong_avoid.name)

let ca_on_loss t i (cc : Cong_avoid.t) ~flight ~mss ~now =
  let ssthresh', cwnd' =
    cc.Cong_avoid.on_loss ~cwnd:(cwnd t i) ~flight ~mss ~now
  in
  set_ssthresh t i ssthresh';
  set_cwnd t i cwnd'

let ca_on_rto t i (cc : Cong_avoid.t) ~flight ~mss =
  let ssthresh', cwnd' = cc.Cong_avoid.on_rto ~cwnd:(cwnd t i) ~flight ~mss in
  set_ssthresh t i ssthresh';
  set_cwnd t i cwnd'
