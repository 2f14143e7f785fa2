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
   boundary-inclusive), then the coordinator drains the channels —
   always in channel-creation order, FIFO within a channel — onto the
   destination heaps. Every delivery is inserted with its send-time
   clock as the event's birth key, so among same-due destination
   events it ranks exactly where a single global heap scheduling it at
   send time would have ranked it; together with the fixed drain order
   this makes the trajectory a pure function of the model and the
   partition structure — worker count only changes which domain
   happens to execute a partition, never the result — and byte-
   identical to the same model run on one scheduler.

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
     needed: the barrier mutex publishes it. The send-time clock rides
     along as the event's birth — in a single global heap this delivery
     would have been scheduled at exactly that instant, so carrying it
     ranks the delivery among same-due destination events precisely
     where the legacy run put it. *)
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

(* ------------------------------------------------------------------ *)
(* Epoch executor: a persistent barrier crew. Worker [w] always owns
   partitions [p] with [p mod nworkers = w] (the coordinator doubles as
   worker 0), so the partition->domain mapping is static — not that it
   could change the trajectory, since partitions share no state, but it
   keeps cache affinity across epochs. *)

type exec = {
  nworkers : int;
  nparts : int;
  m : Mutex.t;
  work : Condition.t;
  donec : Condition.t;
  mutable job : int -> unit;
  mutable gen : int;
  mutable remaining : int;
  mutable stopping : bool;
  mutable error : exn option;
  mutable crew : unit Domain.t list;
}

let stride_run e f w =
  let p = ref w in
  while !p < e.nparts do
    f !p;
    p := !p + e.nworkers
  done

let worker_loop e w =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock e.m;
    while (not e.stopping) && e.gen = !seen do
      Condition.wait e.work e.m
    done;
    if e.stopping then begin
      Mutex.unlock e.m;
      running := false
    end
    else begin
      seen := e.gen;
      let f = e.job in
      Mutex.unlock e.m;
      let failure = try stride_run e f w; None with exn -> Some exn in
      Mutex.lock e.m;
      (match failure with
      | Some exn when e.error = None -> e.error <- Some exn
      | _ -> ());
      e.remaining <- e.remaining - 1;
      if e.remaining = 0 then Condition.broadcast e.donec;
      Mutex.unlock e.m
    end
  done

let make_exec ~workers ~nparts =
  let nworkers = Int.max 1 (Int.min workers nparts) in
  let e =
    {
      nworkers;
      nparts;
      m = Mutex.create ();
      work = Condition.create ();
      donec = Condition.create ();
      job = ignore;
      gen = 0;
      remaining = 0;
      stopping = false;
      error = None;
      crew = [];
    }
  in
  if nworkers > 1 then
    e.crew <-
      List.init (nworkers - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop e (i + 1)));
  e

let stop_exec e =
  if e.crew <> [] then begin
    Mutex.lock e.m;
    e.stopping <- true;
    Condition.broadcast e.work;
    Mutex.unlock e.m;
    List.iter Domain.join e.crew;
    e.crew <- []
  end

let exec_epoch e f =
  if e.nworkers = 1 then
    for p = 0 to e.nparts - 1 do
      f p
    done
  else begin
    Mutex.lock e.m;
    e.job <- f;
    e.gen <- e.gen + 1;
    e.remaining <- e.nworkers - 1;
    Condition.broadcast e.work;
    Mutex.unlock e.m;
    stride_run e f 0;
    Mutex.lock e.m;
    while e.remaining > 0 do
      Condition.wait e.donec e.m
    done;
    let err = e.error in
    e.error <- None;
    Mutex.unlock e.m;
    match err with None -> () | Some exn -> raise exn
  end

(* ------------------------------------------------------------------ *)

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
  let e = make_exec ~workers ~nparts in
  Fun.protect ~finally:(fun () -> stop_exec e) @@ fun () ->
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
      exec_epoch e run_part;
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
  exec_epoch e (fun p -> Scheduler.run ~until t.parts.(p));
  drain_all ()
