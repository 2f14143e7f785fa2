(* Hierarchical (hashed) timing wheel, Varghese & Lauck style, laid out
   like the event heap: structure-of-arrays over unboxed ints, packed
   integer handles, zero minor words per arm/cancel/re-arm.

   Four levels of 256 slots over a configurable power-of-two tick. A
   timer due D ticks from the epoch lives at the highest base-256 digit
   where D differs from the current tick [cur] — the Linux placement
   rule. Each slot is an intrusive doubly-linked list appended at the
   tail, so a slot holds its timers in arm order; cascading re-inserts a
   slot's list in list order, which keeps every slot arm-ordered by
   induction. Timers that share a due tick therefore fire in FIFO arm
   order, exactly like the event heap's (time, sequence) order — the
   property the model-based test checks against the heap as oracle.

   [next_due_ns] reports the next *attention* point: the exact due time
   when the earliest work is a level-0 slot, or the cascade boundary of
   the earliest occupied higher-level slot. Advancing to an attention
   point either fires timers or cascades a slot closer to level 0, so a
   driver that repeatedly advances to [next_due_ns] fires every timer at
   exactly its (tick-quantized) due time. *)

let levels = 4
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits (* 256 *)
let slot_mask = slots_per_level - 1
let span_bits = levels * slot_bits (* ticks addressable: 2^32 *)

(* One extra slot past the four levels parks timers whose due tick lies
   beyond the wheel's 2^32-tick span (a backoff-inflated RTO can land
   past the ~78 h horizon). The overflow list is FIFO like any slot and
   is re-scanned whenever a top-level cascade re-homes level 3 — the
   only instants at which a parked timer can have come into range. *)
let overflow_idx = levels * slots_per_level

(* Handle layout: (generation lsl idx_bits) lor node_index. 22 bits of
   node index = 4M concurrent timers; generations make stale handles
   inert, as in Event_queue. *)
let idx_bits = 22
let idx_mask = (1 lsl idx_bits) - 1
let max_nodes = 1 lsl idx_bits

type handle = int


type t = {
  tick_bits : int;
  mutable cur : int; (* current tick; timers due <= cur have fired *)
  (* per-(level,slot) list heads/tails, indexed level*256+slot; -1 = empty *)
  head : int array;
  tail : int array;
  (* node SoA; [next] threads the free list of unused nodes *)
  mutable due : int array; (* due tick *)
  mutable next : int array;
  mutable prev : int array;
  mutable loc : int array; (* level*256+slot while armed; -1 when free *)
  mutable gen : int array;
  mutable nkind : int array;
  mutable nflow : int array;
  mutable free_head : int;
  mutable count : int;
  mutable ovf : int; (* of [count], how many are parked in overflow *)
  mutable cache_ok : bool;
  mutable cached_ns : int; (* valid when cache_ok *)
  on_fire : kind:int -> flow:int -> unit;
}

let create ?(tick_ns = 65536) ?(initial_capacity = 256) ~on_fire () =
  if tick_ns <= 0 || tick_ns land (tick_ns - 1) <> 0 then
    invalid_arg "Timer_wheel.create: tick_ns must be a positive power of two";
  let tick_bits =
    let rec bits n acc = if n = 1 then acc else bits (n lsr 1) (acc + 1) in
    bits tick_ns 0
  in
  let cap = Stdlib.max 16 initial_capacity in
  let t =
    {
      tick_bits;
      cur = 0;
      head = Array.make ((levels * slots_per_level) + 1) (-1);
      tail = Array.make ((levels * slots_per_level) + 1) (-1);
      due = Array.make cap 0;
      next = Array.make cap (-1);
      prev = Array.make cap (-1);
      loc = Array.make cap (-1);
      gen = Array.make cap 0;
      nkind = Array.make cap 0;
      nflow = Array.make cap 0;
      free_head = 0;
      count = 0;
      ovf = 0;
      cache_ok = false;
      cached_ns = -1;
      on_fire;
    }
  in
  for i = 0 to cap - 1 do
    t.next.(i) <- (if i = cap - 1 then -1 else i + 1)
  done;
  t

let pending t = t.count
let tick_ns t = 1 lsl t.tick_bits
let horizon_ns t = ((t.cur + (1 lsl span_bits)) lsl t.tick_bits) - 1
let now_tick t = t.cur

let grow t =
  let cap = Array.length t.due in
  if cap >= max_nodes then
    invalid_arg "Timer_wheel: too many concurrent timers";
  let cap' = Stdlib.min max_nodes (2 * cap) in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.due <- extend t.due 0;
  t.next <- extend t.next (-1);
  t.prev <- extend t.prev (-1);
  t.loc <- extend t.loc (-1);
  t.gen <- extend t.gen 0;
  t.nkind <- extend t.nkind 0;
  t.nflow <- extend t.nflow 0;
  for i = cap to cap' - 1 do
    t.next.(i) <- (if i = cap' - 1 then -1 else i + 1)
  done;
  t.free_head <- cap

(* Highest base-256 digit where [due_tick] differs from [cur] decides
   the level; the digit itself is the slot. Returned packed as the
   slot-array index [level*256+slot] — a tuple here would put one
   minor-heap allocation on every arm. *)
let place t due_tick =
  let x = due_tick lxor t.cur in
  if x lsr slot_bits = 0 then due_tick land slot_mask
  else if x lsr (2 * slot_bits) = 0 then
    (1 lsl slot_bits) lor ((due_tick lsr slot_bits) land slot_mask)
  else if x lsr (3 * slot_bits) = 0 then
    (2 lsl slot_bits) lor ((due_tick lsr (2 * slot_bits)) land slot_mask)
  else (3 lsl slot_bits) lor ((due_tick lsr (3 * slot_bits)) land slot_mask)

let append_slot t ~idx n =
  let tl = Array.unsafe_get t.tail idx in
  t.loc.(n) <- idx;
  t.prev.(n) <- tl;
  t.next.(n) <- -1;
  if tl < 0 then Array.unsafe_set t.head idx n
  else Array.unsafe_set t.next tl n;
  Array.unsafe_set t.tail idx n

let unlink t n =
  let idx = t.loc.(n) in
  let p = t.prev.(n) in
  let nx = t.next.(n) in
  if p < 0 then Array.unsafe_set t.head idx nx else Array.unsafe_set t.next p nx;
  if nx < 0 then Array.unsafe_set t.tail idx p
  else Array.unsafe_set t.prev nx p;
  t.loc.(n) <- -1

let release t n =
  t.gen.(n) <- (t.gen.(n) + 1) land ((1 lsl (62 - idx_bits)) - 1);
  t.next.(n) <- t.free_head;
  t.loc.(n) <- -1;
  t.free_head <- n

(* Attention contribution of a node at [level]: its exact due for level
   0, else the tick where the wheel will cascade its slot (low digits
   zeroed) — always > cur because the slot digit exceeds cur's. For
   [level = levels] (the overflow slot) this degenerates to the start of
   the node's 2^32-tick era, which is where the top-level cascade that
   can re-home it happens — also always > cur, because an overflow node
   lives in a strictly later era than [cur]. *)
let attention_ns t ~level due_tick =
  let shift = level * slot_bits in
  ((due_tick lsr shift) lsl shift) lsl t.tick_bits

let arm t ~due_ns ~kind ~flow =
  if due_ns < 0 then invalid_arg "Timer_wheel.arm: negative due time";
  (* Round up so a timer never fires before its requested time. *)
  let due_tick = (due_ns + (1 lsl t.tick_bits) - 1) asr t.tick_bits in
  let due_tick = if due_tick < t.cur then t.cur else due_tick in
  if t.free_head < 0 then grow t;
  let n = t.free_head in
  t.free_head <- t.next.(n);
  t.due.(n) <- due_tick;
  t.nkind.(n) <- kind;
  t.nflow.(n) <- flow;
  (* Beyond the 2^32-tick span the base-256 digits are meaningless for
     placement; park the node in the overflow list instead of failing. *)
  let idx =
    if (due_tick lxor t.cur) lsr span_bits <> 0 then overflow_idx
    else place t due_tick
  in
  append_slot t ~idx n;
  if idx = overflow_idx then t.ovf <- t.ovf + 1;
  t.count <- t.count + 1;
  (if t.cache_ok then
     let a = attention_ns t ~level:(idx lsr slot_bits) due_tick in
     if t.cached_ns < 0 || a < t.cached_ns then t.cached_ns <- a);
  (t.gen.(n) lsl idx_bits) lor n

let is_pending t h =
  h >= 0
  &&
  let n = h land idx_mask in
  n < Array.length t.due && t.gen.(n) = h lsr idx_bits && t.loc.(n) >= 0

let cancel t h =
  if is_pending t h then begin
    let n = h land idx_mask in
    (if t.cache_ok then
       let level = t.loc.(n) lsr slot_bits in
       if attention_ns t ~level t.due.(n) = t.cached_ns then
         t.cache_ok <- false);
    if t.loc.(n) = overflow_idx then t.ovf <- t.ovf - 1;
    unlink t n;
    release t n;
    t.count <- t.count - 1
  end

(* First occupied slot index >= [from] at [level], or -1. *)
let scan_level t ~level ~from =
  let base = level lsl slot_bits in
  let s = ref from and found = ref (-1) in
  while !found < 0 && !s < slots_per_level do
    if Array.unsafe_get t.head (base lor !s) >= 0 then found := !s;
    incr s
  done;
  !found

let recompute_cache t =
  if t.count = 0 then begin
    t.cache_ok <- true;
    t.cached_ns <- -1
  end
  else begin
    let attention = ref (-1) in
    (* Level 0 holds exact dues within the current block. *)
    let s0 = scan_level t ~level:0 ~from:(t.cur land slot_mask) in
    if s0 >= 0 then
      attention := ((t.cur land lnot slot_mask) lor s0) lsl t.tick_bits
    else begin
      (* Earliest higher-level slot past the current digit; its cascade
         boundary is the attention point. The slot at the current digit
         is empty by the placement invariant. *)
      let level = ref 1 in
      while !attention < 0 && !level < levels do
        let k = !level in
        let digit = (t.cur lsr (k * slot_bits)) land slot_mask in
        let s = scan_level t ~level:k ~from:(digit + 1) in
        (if s >= 0 then
           let shift = (k + 1) * slot_bits in
           let base = (t.cur lsr shift) lsl shift in
           attention := (base lor (s lsl (k * slot_bits))) lsl t.tick_bits);
        incr level
      done
    end;
    (* Overflow nodes contribute their era start: the top-level cascade
       there is what can re-home them, so the wheel must be advanced at
       least that far. Any in-range timer's attention is earlier (it
       lies inside the current era), so this min only matters when the
       wheel holds nothing but parked timers. *)
    let n = ref t.head.(overflow_idx) in
    while !n >= 0 do
      let a = attention_ns t ~level:levels t.due.(!n) in
      if !attention < 0 || a < !attention then attention := a;
      n := t.next.(!n)
    done;
    t.cache_ok <- true;
    t.cached_ns <- !attention
  end

let next_due_ns t =
  if not t.cache_ok then recompute_cache t;
  t.cached_ns

(* Detach the list at (level,slot) and re-place each node (in order, so
   slot FIFO order survives the cascade). Nodes always land at a lower
   level because their slot digit now matches [cur]'s. *)
let cascade t ~level ~slot =
  let idx = (level lsl slot_bits) lor slot in
  let n = ref t.head.(idx) in
  t.head.(idx) <- -1;
  t.tail.(idx) <- -1;
  while !n >= 0 do
    let node = !n in
    n := t.next.(node);
    append_slot t ~idx:(place t t.due.(node)) node
  done

(* Walk the overflow list in FIFO order, re-homing every node whose due
   tick has come within the wheel's span; still-out-of-range nodes are
   re-appended, so relative order inside the overflow list survives.
   Called on every top-level cascade — entering a new era is a special
   case of a level-3 digit change, so no parked timer can be missed. *)
let refill_overflow t =
  let n = ref t.head.(overflow_idx) in
  t.head.(overflow_idx) <- -1;
  t.tail.(overflow_idx) <- -1;
  t.ovf <- 0;
  while !n >= 0 do
    let node = !n in
    n := t.next.(node);
    let due = t.due.(node) in
    let idx =
      if (due lxor t.cur) lsr span_bits <> 0 then overflow_idx
      else place t due
    in
    if idx = overflow_idx then t.ovf <- t.ovf + 1;
    append_slot t ~idx node
  done

(* Start of the lowest 2^32-tick era holding a parked timer — the first
   tick at which any overflow node can be re-homed. [max_int] when the
   overflow list is empty. *)
let overflow_era_start t =
  let best = ref max_int in
  let n = ref t.head.(overflow_idx) in
  while !n >= 0 do
    let era = (t.due.(!n) lsr span_bits) lsl span_bits in
    if era < !best then best := era;
    n := t.next.(!n)
  done;
  !best

(* Fire every node in level-0 slot [slot] (all due exactly at [cur]).
   The list is detached first so a handler re-arming at the current tick
   appends to an empty slot and is picked up by the outer advance loop
   rather than extending the list being walked. *)
let fire_slot t ~slot =
  let idx = slot in
  let n = ref t.head.(idx) in
  t.head.(idx) <- -1;
  t.tail.(idx) <- -1;
  while !n >= 0 do
    let node = !n in
    n := t.next.(node);
    let kind = t.nkind.(node) and flow = t.nflow.(node) in
    release t node;
    t.count <- t.count - 1;
    t.on_fire ~kind ~flow
  done

(* Level-major slot order, FIFO within a slot. Re-arming the visited
   timers in visit order into a wheel at the same [cur] reproduces every
   slot list exactly: a due tick maps to one (level,slot) for a fixed
   [cur], and within a slot FIFO arm order is preserved — so iteration
   order is a faithful serialization order for snapshots. *)
let iter_pending t ~f =
  for idx = 0 to overflow_idx do
    let n = ref (Array.unsafe_get t.head idx) in
    while !n >= 0 do
      let node = !n in
      n := t.next.(node);
      f
        ~due_ns:(t.due.(node) lsl t.tick_bits)
        ~kind:t.nkind.(node) ~flow:t.nflow.(node)
    done
  done

let drain t =
  for idx = 0 to overflow_idx do
    let n = ref t.head.(idx) in
    t.head.(idx) <- -1;
    t.tail.(idx) <- -1;
    while !n >= 0 do
      let node = !n in
      n := t.next.(node);
      release t node
    done
  done;
  t.count <- 0;
  t.ovf <- 0;
  t.cache_ok <- false

let advance t ~now_ns =
  if now_ns < 0 then invalid_arg "Timer_wheel.advance: negative time";
  let target = now_ns asr t.tick_bits in
  let continue = ref (target > t.cur || t.count > 0) in
  while !continue do
    let block_base = t.cur land lnot slot_mask in
    let s0 = scan_level t ~level:0 ~from:(t.cur land slot_mask) in
    if s0 >= 0 && block_base lor s0 <= target then begin
      t.cur <- block_base lor s0;
      fire_slot t ~slot:s0
    end
    else if t.count = t.ovf then begin
      (* Levels 0–3 are empty, so nothing can fire or cascade before a
         parked timer's era begins: jump over the idle blocks in one
         step instead of walking them 256 ticks at a time. Overflow
         nodes live in strictly later eras than [cur], so the jump
         always moves forward and never passes a due time. *)
      let era = overflow_era_start t in
      if era > target then begin
        if target > t.cur then t.cur <- target;
        continue := false
      end
      else begin
        t.cur <- era;
        refill_overflow t
      end
    end
    else begin
      let next_block = block_base + slots_per_level in
      if next_block > target then begin
        if target > t.cur then t.cur <- target;
        continue := false
      end
      else begin
        let old = t.cur in
        t.cur <- next_block;
        (* Entering a new block at level k re-homes that level's slot
           for the new position; top level first so nodes cascade all
           the way down in one pass. *)
        if old lsr (3 * slot_bits) <> t.cur lsr (3 * slot_bits) then begin
          cascade t ~level:3
            ~slot:((t.cur lsr (3 * slot_bits)) land slot_mask);
          if t.head.(overflow_idx) >= 0 then refill_overflow t
        end;
        if old lsr (2 * slot_bits) <> t.cur lsr (2 * slot_bits) then
          cascade t ~level:2
            ~slot:((t.cur lsr (2 * slot_bits)) land slot_mask);
        cascade t ~level:1 ~slot:((t.cur lsr slot_bits) land slot_mask)
      end
    end
  done;
  t.cache_ok <- false
