(* Conservative-lookahead parallel DES across OCaml domains.

   A [t] owns N partitions, each wrapping its own {!Scheduler} (clock +
   event heap + RNG). Model state is split so every component belongs to
   exactly one partition; the only cross-partition traffic flows through
   typed {!Channel}s whose lookahead is the propagation delay of the
   link they replace.

   Synchronization is the classic conservative epoch loop. Let [nmin]
   be the earliest pending event over all partitions and [L] the
   minimum channel lookahead. Any message a partition emits while
   processing events at time [t >= nmin] is due at [t + delay >= nmin
   + L], so every event strictly below the horizon [H = nmin + L] can
   be fired without ever receiving a message from the past. Each epoch
   runs all partitions up to [H - 1ns] (the run loop is
   boundary-inclusive) as one {!Engine.Pool.iter} batch on the run's
   pool of [min workers parts] domains (a pool of one is a plain
   loop); then the coordinator drains the channels — always in
   channel-creation order, FIFO within a channel — onto the
   destination heaps. Every delivery is inserted with its send-time
   clock as the event's birth key, so among same-due destination
   events it ranks exactly where a single global heap scheduling it at
   send time would have ranked it; together with the fixed drain order
   this makes the trajectory a pure function of the model and the
   partition structure — worker count only changes which domain
   happens to execute a partition, never the result — and byte-
   identical to the same model run on one scheduler. An epoch in which
   events raise re-raises the exception of the lowest-numbered
   partition that raised, at any worker count.

   [run]'s [breaks] are coordinator-owned instants (flow starts,
   sample grids): the loop advances every partition clock exactly to
   the break (events below it all fired, events at it still pending)
   and calls [on_break] from the coordinator, giving it a race-free,
   globally-quiesced view. With one partition it is a sampler that
   reads the model before any event at its instant. *)

type t = {
  parts : Scheduler.t array;
  mutable drains_rev : (unit -> unit) list; (* channel drains, newest first *)
  mutable min_look_ns : int; (* max_int when no channel exists *)
}

let create ~parts ~seed_of =
  if parts < 1 then invalid_arg "Partition.create: need at least 1 partition";
  {
    parts =
      Array.init parts (fun index -> Scheduler.create ~seed:(seed_of index) ());
    drains_rev = [];
    min_look_ns = max_int;
  }

let scheduler t i = t.parts.(i)
let min_lookahead_ns t = t.min_look_ns

module Channel = struct
  type 'a t = {
    src_sched : Scheduler.t;
    dst_sched : Scheduler.t;
    handler : Time.t -> 'a -> unit;
    mutable buf : (int * int * 'a) list;
        (* newest first; (due, birth) times in ns *)
  }

  (* Called from the source partition's domain during an epoch. The
     buffer is single-writer (one partition owns the sending link) and
     is only read by the coordinator after the barrier, so no lock is
     needed: the pool's batch barrier publishes it. The send-time clock
     rides along as the event's birth — in a single global heap this
     delivery would have been scheduled at exactly that instant, so
     carrying it ranks the delivery among same-due destination events
     precisely where the legacy run put it. *)
  let send ch ~due v =
    ch.buf <-
      (Time.to_ns_int due, Time.to_ns_int (Scheduler.now ch.src_sched), v)
      :: ch.buf

  (* Coordinator-only, between epochs. Conservative horizons guarantee
     every buffered due time is at or beyond the destination clock. *)
  let drain ch =
    match ch.buf with
    | [] -> ()
    | newest_first ->
        ch.buf <- [];
        List.iter
          (fun (due_ns, birth_ns, v) ->
            let due = Time.of_ns_int due_ns in
            ignore
              (Scheduler.at
                 ~birth:(Time.of_ns_int birth_ns)
                 ch.dst_sched due
                 (fun () -> ch.handler due v)))
          (List.rev newest_first)
end

let channel t ~src ~dst ~lookahead ~handler =
  let n = Array.length t.parts in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Partition.channel: partition index out of range";
  if src = dst then
    invalid_arg "Partition.channel: src and dst must be distinct partitions";
  let look_ns = Time.to_ns_int lookahead in
  if look_ns <= 0 then
    invalid_arg
      "Partition.channel: lookahead must be positive (a zero-delay boundary \
       link gives the conservative horizon no room to advance)";
  let ch =
    {
      Channel.src_sched = t.parts.(src);
      dst_sched = t.parts.(dst);
      handler;
      buf = [];
    }
  in
  t.drains_rev <- (fun () -> Channel.drain ch) :: t.drains_rev;
  if look_ns < t.min_look_ns then t.min_look_ns <- look_ns;
  ch

let run t ~until ?(workers = 1) ?(breaks = []) ?(on_break = fun _ -> ()) () =
  let until_ns = Time.to_ns_int until in
  (* Breaks are taken in ascending order, each once: one at or before
     the last taken, or at first the clock, has passed, and taking it
     would pull the clock back and repeat its callback. An ascending
     list (a sample grid) is walked in place, so the loop allocates
     nothing per break. *)
  let last =
    ref
      (Array.fold_left
         (fun acc p -> Int.max acc (Time.to_ns_int (Scheduler.now p)))
         0 t.parts)
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b && ascending rest
    | _ -> true
  in
  let breaks = (breaks : Time.t list :> int list) in
  let breaks =
    if ascending breaks then breaks else List.sort Int.compare breaks
  in
  let nparts = Array.length t.parts in
  let drains = List.rev t.drains_rev in
  let drain_all () = List.iter (fun d -> d ()) drains in
  let next_event () =
    Array.fold_left
      (fun acc p ->
        let n = Scheduler.next_ns p in
        if n >= 0 && (acc < 0 || n < acc) then n else acc)
      (-1) t.parts
  in
  (* The run's own pool, created for it: partitions are independent
     within an epoch, so which domain runs one never matters. *)
  Engine.Pool.with_pool ~jobs:(Int.max 1 (Int.min workers nparts))
  @@ fun pool ->
  (* One epoch job for the whole run, reading the horizon the
     coordinator set before it published the epoch: a break then
     allocates nothing but the [~until] option. *)
  let horizon = ref Time.zero in
  let run_part p = Scheduler.run ~until:!horizon t.parts.(p) in
  (* Fire every event strictly below [target], one conservative epoch
     at a time. Each epoch advances the horizon by at least the minimum
     lookahead, and always past the earliest pending event, so the loop
     terminates. *)
  let rec advance_to target =
    let nmin = next_event () in
    if nmin >= 0 && nmin < target then begin
      let h =
        if t.min_look_ns = max_int || t.min_look_ns >= target - nmin then
          target
        else nmin + t.min_look_ns
      in
      horizon := Time.of_ns_int (h - 1);
      Engine.Pool.iter pool nparts run_part;
      drain_all ();
      advance_to target
    end
  in
  List.iter
    (fun b ->
      if b > !last && b <= until_ns then begin
        last := b;
        advance_to b;
        let bt = Time.of_ns_int b in
        for p = 0 to nparts - 1 do
          Scheduler.restore_clock t.parts.(p) bt
        done;
        on_break bt
      end)
    breaks;
  advance_to until_ns;
  (* Final boundary-inclusive epoch: only events at exactly [until]
     remain below the cut; messages they emit are due strictly later
     and stay pending, exactly as a single-scheduler run leaves
     not-yet-due deliveries in its heap. *)
  Engine.Pool.iter pool nparts (fun p -> Scheduler.run ~until t.parts.(p));
  drain_all ()
