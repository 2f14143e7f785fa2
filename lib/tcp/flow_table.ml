(* Flat structure-of-arrays per-flow state for the flow-level many_flows
   engine: one table holds every flow's numeric state as parallel
   unboxed arrays, and the engine operates on a row index instead of a
   boxed per-flow record. Reading or writing a column is an array access
   — no pointer chase, no boxed float, no per-flow closure — so a
   million rows cost seven contiguous arrays (7 words/flow) and scan at
   memory bandwidth. Column layout:

     floats  cwnd ssthresh                (bytes)
     ints    budget rng timer phase next_free

   Rows are recycled through an intrusive free list threaded through
   [next_free]; [phase = -1] marks a free row, so a stale index is
   detectable. A table starts small and doubles when every row is live,
   up to its [max_cap]: freed rows go back on the head of the list, so
   a never-used row k is handed out only once rows 0..k-1 are all live,
   which is exactly when a growing table grows. Every table, whatever
   its starting size, therefore hands out the same rows in the same
   order, and a table of live rows only costs what the run holds.
   [timer] is the engine's timer bookkeeping (the many_flows engine
   links each round cohort's rows through it); [rng] is a per-flow
   xorshift state so the engine draws per-flow randomness without
   touching a shared stream. *)

type t = {
  mutable cap : int;
  max_cap : int; (* [grow] stops here *)
  mutable in_use : int;
  mutable free_head : int; (* threaded through [next_free]; -1 = none *)
  mutable cwnd : float array;
  mutable ssthresh : float array;
  mutable budget : int array; (* remaining bytes; -1 = unbounded *)
  mutable rng : int array; (* xorshift state, never 0 while in use *)
  mutable timer : int array; (* engine timer bookkeeping; -1 = none *)
  mutable phase : int array; (* engine phase code; -1 = free row *)
  mutable next_free : int array; (* free-list link; -1 ends the list *)
}

let link_free next_free ~from ~cap =
  for i = from to cap - 1 do
    next_free.(i) <- (if i = cap - 1 then -1 else i + 1)
  done

let create ?(initial_capacity = 16) ?(max_capacity = max_int) () =
  if max_capacity < 1 then invalid_arg "Flow_table.create: max_capacity < 1";
  let cap = Int.max 1 (Int.min initial_capacity max_capacity) in
  let next_free = Array.make cap (-1) in
  link_free next_free ~from:0 ~cap;
  {
    cap;
    max_cap = max_capacity;
    in_use = 0;
    free_head = 0;
    cwnd = Array.make cap 0.;
    ssthresh = Array.make cap 0.;
    budget = Array.make cap (-1);
    rng = Array.make cap 1;
    timer = Array.make cap (-1);
    phase = Array.make cap (-1);
    next_free;
  }

let capacity t = t.cap
let in_use t = t.in_use

let grow t =
  if t.cap >= t.max_cap then
    invalid_arg "Flow_table.alloc: every row up to max_capacity is live";
  let cap' = Int.min (2 * t.cap) t.max_cap in
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
  t.budget <- exti (-1) t.budget;
  t.rng <- exti 1 t.rng;
  t.timer <- exti (-1) t.timer;
  t.phase <- exti (-1) t.phase;
  t.next_free <- exti (-1) t.next_free;
  link_free t.next_free ~from:t.cap ~cap:cap';
  t.free_head <- t.cap;
  t.cap <- cap'

let alloc t =
  if t.free_head < 0 then grow t;
  let i = t.free_head in
  t.free_head <- t.next_free.(i);
  t.in_use <- t.in_use + 1;
  t.cwnd.(i) <- 0.;
  t.ssthresh.(i) <- infinity;
  t.budget.(i) <- -1;
  t.rng.(i) <- 1;
  t.timer.(i) <- -1;
  t.phase.(i) <- 0;
  t.next_free.(i) <- -1;
  i

let is_live t i = i >= 0 && i < t.cap && t.phase.(i) >= 0

let free t i =
  if not (is_live t i) then invalid_arg "Flow_table.free: dead row";
  t.phase.(i) <- -1;
  t.next_free.(i) <- t.free_head;
  t.free_head <- i;
  t.in_use <- t.in_use - 1

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

(* --- snapshot ----------------------------------------------------------- *)

(* Full-table serialization: every column at full capacity plus the
   three scalars. Free rows travel too — the free list is threaded
   through [next_free] and marked by [phase = -1] — so a restored table
   hands out the same rows in the same order as the original, which is
   what keeps post-resume allocations (and the per-row RNG streams
   seeded into them) byte-identical to an unbroken run. The link and
   phase columns keep the section names [una] and [flags] they had when
   rows also held a sender's offsets and latches, so older images
   restore; their other columns are ignored. *)

let save t ~prefix w =
  let p name = prefix ^ name in
  Sim.Snapshot.put_int w (p "cap") t.cap;
  Sim.Snapshot.put_int w (p "in_use") t.in_use;
  Sim.Snapshot.put_int w (p "free_head") t.free_head;
  Sim.Snapshot.put_float_array w (p "cwnd") t.cwnd;
  Sim.Snapshot.put_float_array w (p "ssthresh") t.ssthresh;
  Sim.Snapshot.put_int_array w (p "una") t.next_free;
  Sim.Snapshot.put_int_array w (p "budget") t.budget;
  Sim.Snapshot.put_int_array w (p "rng") t.rng;
  Sim.Snapshot.put_int_array w (p "timer") t.timer;
  Sim.Snapshot.put_int_array w (p "flags") t.phase

(* A restored image is input from disk: check the counters and the free
   list before [alloc] trusts them. The list from [free_head] must end
   at -1 after exactly [cap - in_use] rows, each marked free; a list
   that revisits a row never ends, so ending in time means its rows are
   distinct. Together with the count of rows marked free, that makes
   them exactly the free rows. *)
let check_free_list ~p ~cap ~in_use ~free_head ~next_free ~phase =
  let corrupt fmt =
    Printf.ksprintf
      (fun s -> raise (Sim.Snapshot.Corrupt ("Flow_table: " ^ s)))
      fmt
  in
  if in_use < 0 || in_use > cap then
    corrupt "%s = %d outside 0..%d" (p "in_use") in_use cap;
  if free_head < -1 || free_head >= cap then
    corrupt "%s = %d outside -1..%d" (p "free_head") free_head (cap - 1);
  Array.iteri
    (fun i l ->
      if l < -1 || l >= cap then
        corrupt "%s: row %d links to %d, outside -1..%d" (p "una") i l
          (cap - 1))
    next_free;
  let want = cap - in_use in
  let i = ref free_head and n = ref 0 in
  while !i >= 0 do
    if !n = want then
      corrupt "the free list from %s holds more than the %d rows %s leaves"
        (p "free_head") want (p "in_use");
    if phase.(!i) >= 0 then
      corrupt "the free list from %s reaches row %d, live in %s"
        (p "free_head") !i (p "flags");
    incr n;
    i := next_free.(!i)
  done;
  if !n <> want then
    corrupt "the free list from %s holds %d rows, %s leaves %d"
      (p "free_head") !n (p "in_use") want;
  let marked =
    Array.fold_left (fun k f -> if f < 0 then k + 1 else k) 0 phase
  in
  if marked <> want then
    corrupt "%s marks %d rows free, the free list holds %d" (p "flags")
      marked want

let restore t ~prefix r =
  let p name = prefix ^ name in
  let cap = Sim.Snapshot.get_int r (p "cap") in
  if cap <= 0 then raise (Sim.Snapshot.Corrupt "Flow_table: bad capacity");
  let column get name =
    let a = get r (p name) in
    if Array.length a <> cap then
      raise (Sim.Snapshot.Corrupt ("Flow_table: short column " ^ name));
    a
  in
  let ints = column Sim.Snapshot.get_int_array
  and floats = column Sim.Snapshot.get_float_array in
  let in_use = Sim.Snapshot.get_int r (p "in_use")
  and free_head = Sim.Snapshot.get_int r (p "free_head")
  and cwnd = floats "cwnd"
  and ssthresh = floats "ssthresh"
  and budget = ints "budget"
  and rng = ints "rng"
  and timer = ints "timer"
  and phase = ints "flags"
  and next_free = ints "una" in
  check_free_list ~p ~cap ~in_use ~free_head ~next_free ~phase;
  t.cap <- cap;
  t.in_use <- in_use;
  t.free_head <- free_head;
  t.cwnd <- cwnd;
  t.ssthresh <- ssthresh;
  t.budget <- budget;
  t.rng <- rng;
  t.timer <- timer;
  t.phase <- phase;
  t.next_free <- next_free
