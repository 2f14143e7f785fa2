(* Indexed structure-of-arrays 4-ary min-heap.

   Heap entries live in four parallel int arrays (time, birth, seq,
   slot), so a sift moves immediates only: no write barrier, and adding
   an event allocates nothing. The slot table, indexed by a handle's
   slot, holds each event's action, its generation and its current heap
   position; the position lets [cancel] remove the entry at once.

   Handles are (generation << slot_bits) | slot. The generation is bumped
   whenever a slot is freed, so a stale handle (event already fired or
   cancelled) can never cancel an unrelated later event. Every slot in
   use has exactly one heap entry, so the heap and the slot table share
   one capacity. *)

let slot_bits = 21
let slot_mask = (1 lsl slot_bits) - 1
let max_slots = 1 lsl slot_bits

type handle = int

let null = -1
let nop () = ()

type t = {
  (* heap entries, structure-of-arrays; indices [0, size) are the heap *)
  mutable times : int array;
  mutable births : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
  (* slot table, indexed by handle slot *)
  mutable actions : (unit -> unit) array;
  mutable gens : int array;
  mutable pos : int array; (* heap index of the slot's entry, -1 if free *)
  mutable free : int array; (* stack of free slot ids *)
  mutable free_top : int;
}

let create ?(initial_capacity = 64) () =
  let cap = Int.max 1 initial_capacity in
  {
    times = Array.make cap 0;
    births = Array.make cap 0;
    seqs = Array.make cap 0;
    slots = Array.make cap (-1);
    size = 0;
    next_seq = 0;
    actions = Array.make cap nop;
    gens = Array.make cap 0;
    pos = Array.make cap (-1);
    free = Array.init cap (fun i -> cap - 1 - i);
    free_top = cap;
  }

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Called with the free stack empty: every slot holds a live event. *)
let grow t =
  let old = Array.length t.gens in
  if old >= max_slots then
    failwith
      (Printf.sprintf
         "Event_queue: handle space exhausted with %d live events (max \
          2^21 = %d pending). A single heap this loaded usually means an \
          unsharded packet-level workload — split the scenario across \
          partitions (\"domains\" > 1) or move dense timers that are never \
          cancelled to Timer_wheel."
         t.size max_slots);
  let cap = Int.min max_slots (2 * old) in
  t.times <- extend t.times cap 0;
  t.births <- extend t.births cap 0;
  t.seqs <- extend t.seqs cap 0;
  t.slots <- extend t.slots cap (-1);
  t.actions <- extend t.actions cap nop;
  t.gens <- extend t.gens cap 0;
  t.pos <- extend t.pos cap (-1);
  let free = Array.make cap 0 in
  for i = 0 to cap - old - 1 do
    free.(i) <- cap - 1 - i
  done;
  t.free <- free;
  t.free_top <- cap - old

(* (time, birth, seq) lexicographic order: earlier time first, then by
   when the event was scheduled, then FIFO. For a lone queue the clock
   never regresses, so birth is nondecreasing in seq and the order
   degenerates to the classic (time, seq) FIFO. The birth key only
   matters when a partition barrier splices in events born on another
   scheduler (see {!Partition}): it ranks them among same-due locals
   exactly where a single global heap would have. *)
let[@inline] before (t1 : int) (b1 : int) (s1 : int) t2 b2 s2 =
  t1 < t2 || (t1 = t2 && (b1 < b2 || (b1 = b2 && s1 < s2)))

(* The sift loops use unsafe accesses: every heap index is kept below
   [size], which never exceeds the shared length of the arrays, and
   every slot below the slot table's length. Each entry that moves
   records its new index in [pos]. *)

(* Hole-based insertion: shift later parents down, then write the
   entry once. *)
let sift_up t i time birth seq slot =
  let times = t.times
  and births = t.births
  and seqs = t.seqs
  and slots = t.slots
  and pos = t.pos in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = Array.unsafe_get times p in
    let pb = Array.unsafe_get births p in
    let ps = Array.unsafe_get seqs p in
    if before time birth seq pt pb ps then begin
      let s = Array.unsafe_get slots p in
      Array.unsafe_set times !i pt;
      Array.unsafe_set births !i pb;
      Array.unsafe_set seqs !i ps;
      Array.unsafe_set slots !i s;
      Array.unsafe_set pos s !i;
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set births !i birth;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  Array.unsafe_set pos slot !i

(* Sift the entry (time, birth, seq, slot) down from index [i] in a
   heap of [n] entries. *)
let sift_down t i n time birth seq slot =
  let times = t.times
  and births = t.births
  and seqs = t.seqs
  and slots = t.slots
  and pos = t.pos in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let c1 = (4 * !i) + 1 in
    if c1 >= n then moving := false
    else begin
      let m = ref c1 in
      let mt = ref (Array.unsafe_get times c1) in
      let mb = ref (Array.unsafe_get births c1) in
      let ms = ref (Array.unsafe_get seqs c1) in
      let last = Int.min (c1 + 3) (n - 1) in
      for c = c1 + 1 to last do
        let ct = Array.unsafe_get times c in
        let cb = Array.unsafe_get births c in
        let cs = Array.unsafe_get seqs c in
        if before ct cb cs !mt !mb !ms then begin
          m := c;
          mt := ct;
          mb := cb;
          ms := cs
        end
      done;
      if before !mt !mb !ms time birth seq then begin
        let s = Array.unsafe_get slots !m in
        Array.unsafe_set times !i !mt;
        Array.unsafe_set births !i !mb;
        Array.unsafe_set seqs !i !ms;
        Array.unsafe_set slots !i s;
        Array.unsafe_set pos s !i;
        i := !m
      end
      else moving := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set births !i birth;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  Array.unsafe_set pos slot !i

let push t ~time ~birth ~seq action =
  assert (not (Time.is_negative time));
  if t.free_top = 0 then grow t;
  let top = t.free_top - 1 in
  t.free_top <- top;
  let slot = t.free.(top) in
  t.actions.(slot) <- action;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i (Time.to_ns_int time) (Time.to_ns_int birth) seq slot;
  (t.gens.(slot) lsl slot_bits) lor slot

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Required [birth] keeps the hot path allocation-free: an optional
   argument would box a [Some] per event. *)
let add_born t ~birth ~time action = push t ~time ~birth ~seq:(reserve t) action

let add t ?(birth = Time.zero) ~time action = add_born t ~birth ~time action

let add_reserved t ~birth ~seq ~time action =
  if seq < 0 || seq >= t.next_seq then
    invalid_arg
      (Printf.sprintf "Event_queue.add_reserved: seq %d was not reserved" seq);
  push t ~time ~birth ~seq action

(* Remove the entry at heap index [i] and free its slot. The last entry
   fills the hole and moves up or down to its place. *)
let remove_at t i =
  let slot = t.slots.(i) in
  t.gens.(slot) <- t.gens.(slot) + 1;
  t.actions.(slot) <- nop;
  t.pos.(slot) <- -1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  let n = t.size - 1 in
  t.size <- n;
  if i < n then begin
    let time = t.times.(n)
    and birth = t.births.(n)
    and seq = t.seqs.(n)
    and last = t.slots.(n) in
    let p = (i - 1) / 4 in
    if i > 0 && before time birth seq t.times.(p) t.births.(p) t.seqs.(p)
    then sift_up t i time birth seq last
    else sift_down t i n time birth seq last
  end

(* The heap index of the event [h] designates, or -1 once it has fired
   or been cancelled. *)
let index t h =
  if h < 0 then -1
  else
    let slot = h land slot_mask in
    if slot < Array.length t.gens && t.gens.(slot) = h lsr slot_bits then
      t.pos.(slot)
    else -1

let cancel t h =
  let i = index t h in
  if i >= 0 then remove_at t i

let is_cancelled t h = index t h < 0

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and action = t.actions.(t.slots.(0)) in
    remove_at t 0;
    Some (Time.of_ns_int time, action)
  end

let next_time t = if t.size = 0 then None else Some (Time.of_ns_int t.times.(0))

let next_time_ns t = if t.size = 0 then -1 else t.times.(0)

let pop_action_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_action_exn: no live event";
  let action = t.actions.(t.slots.(0)) in
  remove_at t 0;
  action

let live_count t = t.size
let is_empty t = t.size = 0
