type handle = Event_queue.handle

type t = {
  mutable clock : Time.t;
  events : Event_queue.t;
  random : Rng.t;
  seed : int;
  mutable derived_streams : int;
  mutable tracer : Trace.t option;
  mutable wheels : Timer_wheel.t array;
}

let create ?(seed = 1) () =
  {
    clock = Time.zero;
    events = Event_queue.create ();
    random = Rng.of_seed seed;
    seed;
    derived_streams = 0;
    tracer = None;
    wheels = [||];
  }

(* Attach order is model-construction order, hence deterministic; it is
   the tie-break when several wheels share an attention time (sharded
   many_flows engines each own a wheel but never interact, so the order
   among them is observationally irrelevant — it only has to be fixed). *)
let attach_wheel t w = t.wheels <- Array.append t.wheels [| w |]

let set_tracer t tr = t.tracer <- tr

let now t = t.clock
let rng t = t.random

(* Streams are numbered in creation order, which is deterministic for a
   given model construction, so a component that asks for its own stream
   gets the same one on every run with the same seed — without consuming
   any draws from the shared {!rng} stream. *)
let derive_rng t =
  let stream = t.derived_streams in
  t.derived_streams <- stream + 1;
  Rng.of_seed (Rng.derive_seed ~root:t.seed ~stream)

let at ?birth t time action =
  if Time.(time < t.clock) then
    invalid_arg
      (Format.asprintf "Scheduler.at: %a is before now (%a)" Time.pp time
         Time.pp t.clock);
  let birth = match birth with Some b -> b | None -> t.clock in
  Event_queue.add_born t.events ~birth ~time action

let reserve t = Event_queue.reserve t.events

let at_reserved t ~birth ~seq time action =
  if Time.(time < t.clock) then
    invalid_arg
      (Format.asprintf "Scheduler.at_reserved: %a is before now (%a)" Time.pp
         time Time.pp t.clock);
  Event_queue.add_reserved t.events ~birth ~seq ~time action

let after t delay action =
  let delay = Time.max delay Time.zero in
  Event_queue.add_born t.events ~birth:t.clock
    ~time:(Time.add t.clock delay) action

(* One [tick] closure per periodic timer, re-armed for its whole
   lifetime: a periodic sampler allocates nothing per occurrence. *)
let every t period action =
  assert (Time.is_positive period);
  let cell = ref Event_queue.null in
  let next = ref (Time.add t.clock period) in
  let rec tick () =
    action ();
    next := Time.add !next period;
    cell := Event_queue.add_born t.events ~birth:t.clock ~time:!next tick
  in
  cell := Event_queue.add_born t.events ~birth:t.clock ~time:!next tick;
  cell

let cancel t h = Event_queue.cancel t.events h

(* Earliest attention time across the attached wheels, clamped so the
   clock never regresses (wheels quantize to tick boundaries, which may
   fall before a mid-tick clock). -1 when none are attached or all are
   idle. Ties pick the first-attached wheel (see [attach_wheel]). *)
let wheel_arg t =
  let best = ref (-1) and best_i = ref (-1) in
  let clock_ns = Time.to_ns_int t.clock in
  for i = 0 to Array.length t.wheels - 1 do
    let ns = Timer_wheel.next_due_ns t.wheels.(i) in
    if ns >= 0 then begin
      let ns = Int.max ns clock_ns in
      if !best < 0 || ns < !best then begin
        best := ns;
        best_i := i
      end
    end
  done;
  !best_i

let wheel_ns t =
  let i = wheel_arg t in
  if i < 0 then -1
  else
    Int.max
      (Timer_wheel.next_due_ns t.wheels.(i))
      (Time.to_ns_int t.clock)

(* Clock-jump hook shared by snapshot restore (resume from the
   checkpoint time before any event is scheduled) and the partition
   barrier (all events below the barrier are already fired). Jumping
   over a pending event would make it fire in the past and corrupt
   causality silently, so that precondition is enforced here. *)
let check_jump what pending_ns ns =
  if pending_ns >= 0 && pending_ns < ns then
    invalid_arg
      (Printf.sprintf
         "Scheduler.restore_clock: pending %s event at %d ns is earlier \
          than the new clock %d ns"
         what pending_ns ns)

(* [check_jump] is not a local closure: a barrier takes this at every
   break, and it allocates nothing. *)
let restore_clock t time =
  let ns = Time.to_ns_int time in
  check_jump "heap" (Event_queue.next_time_ns t.events) ns;
  check_jump "wheel" (wheel_ns t) ns;
  t.clock <- time

(* The run loop uses the queue's unboxed accessors: dispatching an
   event moves the clock and fires the action without allocating. The
   heap wins ties against the wheels, so attaching an idle wheel leaves
   heap-only runs byte-identical. *)
let step t =
  let ns = Event_queue.next_time_ns t.events in
  let wi = wheel_arg t in
  let wns =
    if wi < 0 then -1
    else
      Int.max
        (Timer_wheel.next_due_ns t.wheels.(wi))
        (Time.to_ns_int t.clock)
  in
  if ns >= 0 && (wns < 0 || ns <= wns) then begin
    let action = Event_queue.pop_action_exn t.events in
    t.clock <- Time.of_ns_int ns;
    (match t.tracer with
    | None -> ()
    | Some tr ->
        Trace.emit tr ~time_ns:ns ~code:Trace.Code.sched_dispatch ~src:0
          ~arg1:(Event_queue.live_count t.events) ~arg2:0);
    action ();
    true
  end
  else if wns >= 0 then begin
    t.clock <- Time.of_ns_int wns;
    Timer_wheel.advance t.wheels.(wi) ~now_ns:wns;
    true
  end
  else false

let next_ns t =
  let ns = Event_queue.next_time_ns t.events in
  let wns = wheel_ns t in
  if ns >= 0 && (wns < 0 || ns <= wns) then ns else wns

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      let horizon_ns = Time.to_ns_int horizon in
      let continue = ref true in
      while !continue do
        let ns = next_ns t in
        if ns >= 0 && ns <= horizon_ns then ignore (step t)
        else continue := false
      done;
      if Time.(t.clock < horizon) then t.clock <- horizon

let pending t =
  Array.fold_left
    (fun acc w -> acc + Timer_wheel.pending w)
    (Event_queue.live_count t.events)
    t.wheels
