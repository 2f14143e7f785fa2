let test_fifo_same_time () =
  let q = Sim.Event_queue.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  ignore (Sim.Event_queue.add q ~time:(Sim.Time.ms 1) (note "a"));
  ignore (Sim.Event_queue.add q ~time:(Sim.Time.ms 1) (note "b"));
  ignore (Sim.Event_queue.add q ~time:(Sim.Time.ms 1) (note "c"));
  let rec drain () =
    match Sim.Event_queue.pop q with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "FIFO at equal times" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_time_order () =
  let q = Sim.Event_queue.create ~initial_capacity:1 () in
  let times = [ 5; 1; 4; 2; 3; 9; 7; 8; 6; 0 ] in
  List.iter
    (fun ms -> ignore (Sim.Event_queue.add q ~time:(Sim.Time.ms ms) (fun () -> ())))
    times;
  let popped = ref [] in
  let rec drain () =
    match Sim.Event_queue.pop q with
    | Some (t, _) ->
        popped := Sim.Time.to_ms t :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-9)))
    "ascending"
    [ 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ]
    (List.rev !popped)

let test_cancel () =
  let q = Sim.Event_queue.create () in
  let fired = ref 0 in
  let h1 = Sim.Event_queue.add q ~time:(Sim.Time.ms 1) (fun () -> incr fired) in
  let _h2 = Sim.Event_queue.add q ~time:(Sim.Time.ms 2) (fun () -> incr fired) in
  Sim.Event_queue.cancel q h1;
  Alcotest.(check bool) "is_cancelled" true (Sim.Event_queue.is_cancelled q h1);
  Alcotest.(check int) "live_count" 1 (Sim.Event_queue.live_count q);
  let rec drain () =
    match Sim.Event_queue.pop q with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "only live event fired" 1 !fired;
  (* Cancelling after the fact is a harmless no-op. *)
  Sim.Event_queue.cancel q h1

let test_empty () =
  let q = Sim.Event_queue.create () in
  Alcotest.(check bool) "is_empty" true (Sim.Event_queue.is_empty q);
  Alcotest.(check bool) "pop none" true (Sim.Event_queue.pop q = None);
  Alcotest.(check bool) "next_time none" true
    (Sim.Event_queue.next_time q = None)

let test_next_time_skips_cancelled () =
  let q = Sim.Event_queue.create () in
  let h = Sim.Event_queue.add q ~time:(Sim.Time.ms 1) (fun () -> ()) in
  ignore (Sim.Event_queue.add q ~time:(Sim.Time.ms 2) (fun () -> ()));
  Sim.Event_queue.cancel q h;
  (match Sim.Event_queue.next_time q with
  | Some t ->
      Alcotest.(check (float 1e-9)) "skips cancelled head" 2. (Sim.Time.to_ms t)
  | None -> Alcotest.fail "expected a live event")

let test_null_handle () =
  let q = Sim.Event_queue.create () in
  ignore (Sim.Event_queue.add q ~time:(Sim.Time.ms 1) (fun () -> ()));
  Sim.Event_queue.cancel q Sim.Event_queue.null;
  Alcotest.(check bool) "null is_cancelled" true
    (Sim.Event_queue.is_cancelled q Sim.Event_queue.null);
  Alcotest.(check int) "null cancel is a no-op" 1
    (Sim.Event_queue.live_count q)

let test_stale_handle_inert () =
  (* A handle whose event already fired must never cancel the event
     that recycles its slot. *)
  let q = Sim.Event_queue.create ~initial_capacity:1 () in
  let h1 = Sim.Event_queue.add q ~time:(Sim.Time.ms 1) (fun () -> ()) in
  (match Sim.Event_queue.pop q with
  | Some _ -> ()
  | None -> Alcotest.fail "expected event");
  let fired = ref false in
  let _h2 = Sim.Event_queue.add q ~time:(Sim.Time.ms 2) (fun () -> fired := true) in
  Sim.Event_queue.cancel q h1;
  Alcotest.(check int) "stale cancel leaves successor live" 1
    (Sim.Event_queue.live_count q);
  (match Sim.Event_queue.pop q with Some (_, f) -> f () | None -> ());
  Alcotest.(check bool) "successor fired" true !fired

let test_mass_cancel_drain () =
  (* 200,000 cancels in a row, each removing its entry from the heap at
     once: the heap ends holding the one live event, which pops next. *)
  let n = 200_000 in
  let q = Sim.Event_queue.create () in
  let handles =
    Array.init n (fun i ->
        Sim.Event_queue.add q ~time:(Sim.Time.us i) (fun () -> ()))
  in
  let keeper = Sim.Event_queue.add q ~time:(Sim.Time.sec 1) (fun () -> ()) in
  Array.iter (fun h -> Sim.Event_queue.cancel q h) handles;
  Alcotest.(check int) "one live survivor" 1 (Sim.Event_queue.live_count q);
  Alcotest.(check bool) "keeper not cancelled" false
    (Sim.Event_queue.is_cancelled q keeper);
  (match Sim.Event_queue.pop q with
  | Some (t, _) ->
      Alcotest.(check (float 1e-9)) "survivor pops" 1000. (Sim.Time.to_ms t)
  | None -> Alcotest.fail "expected the survivor");
  Alcotest.(check bool) "empty after survivor" true (Sim.Event_queue.is_empty q)

let qcheck_heap_order =
  QCheck.Test.make ~name:"pop yields non-decreasing times" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (int_bound 10_000))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iter
        (fun ms ->
          ignore (Sim.Event_queue.add q ~time:(Sim.Time.us ms) (fun () -> ())))
        times;
      let rec drain prev =
        match Sim.Event_queue.pop q with
        | None -> true
        | Some (t, _) -> if Sim.Time.(t >= prev) then drain t else false
      in
      drain Sim.Time.zero)

let qcheck_cancel_count =
  QCheck.Test.make ~name:"live_count tracks cancellations" ~count:100
    QCheck.(pair (int_bound 50) (int_bound 50))
    (fun (keep, cancel) ->
      let q = Sim.Event_queue.create () in
      let handles =
        List.init (keep + cancel) (fun i ->
            Sim.Event_queue.add q ~time:(Sim.Time.us i) (fun () -> ()))
      in
      List.iteri
        (fun i h -> if i < cancel then Sim.Event_queue.cancel q h)
        handles;
      Sim.Event_queue.live_count q = keep)

(* Regression for the handle-space ceiling: overflowing 2^21 pending
   events must fail with a message that reports the live count and
   points at the cure (sharding / the timer wheel), not a bare limit. *)
let test_overflow_message () =
  let q = Sim.Event_queue.create () in
  let nop () = () in
  let n = 1 lsl 21 in
  for i = 0 to n - 1 do
    ignore (Sim.Event_queue.add q ~time:(Sim.Time.ns i) nop)
  done;
  match Sim.Event_queue.add q ~time:(Sim.Time.ns n) nop with
  | _ -> Alcotest.fail "expected Failure past 2^21 pending events"
  | exception Failure msg ->
      let expected =
        Printf.sprintf
          "Event_queue: handle space exhausted with %d live events (max \
           2^21 = %d pending). A single heap this loaded usually means an \
           unsharded packet-level workload — split the scenario across \
           partitions (\"domains\" > 1) or move dense timers that are never \
           cancelled to Timer_wheel."
          n n
      in
      Alcotest.(check string) "overload message" expected msg

(* --- allocation ------------------------------------------------------- *)

(* Exact minor words of the heap's hot loops. The values were read on
   OCaml 5.1.1 with the dev profile, which compiles with -opaque; other
   profiles may read other numbers. The churn loops run at depth 1,024,
   filled before the count starts. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let due i = i * 977 mod 7919

let filled () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 1023 do
    ignore (Sim.Event_queue.add q ~time:(Sim.Time.ns (due i)) (fun () -> ()))
  done;
  q

(* The scheduler's unboxed path: next_time_ns, pop_action_exn, add. *)
let test_churn_words () =
  let q = filled () in
  Alcotest.(check int) "minor words over 100,000 pop + add" 0
    (minor_words (fun () ->
         for i = 0 to 99_999 do
           let ns = Sim.Event_queue.next_time_ns q in
           let (_ : unit -> unit) = Sim.Event_queue.pop_action_exn q in
           ignore
             (Sim.Event_queue.add q
                ~time:(Sim.Time.add (Sim.Time.of_ns_int ns)
                         (Sim.Time.ns (due i)))
                (fun () -> ()))
         done))

let test_add_cancel_words () =
  let q = filled () in
  Alcotest.(check int) "minor words over 100,000 add + cancel" 0
    (minor_words (fun () ->
         for i = 0 to 99_999 do
           Sim.Event_queue.cancel q
             (Sim.Event_queue.add q ~time:(Sim.Time.ns (due i + 1))
                (fun () -> ()))
         done))

(* 500 fresh queues of 1,024 adds, every other one cancelled, the rest
   drained by [pop]: each cancel removes its entry from the middle of
   the heap. Each live pop returns its (time, action) pair in an
   option, and each round builds one [drain] closure and grows its
   queue's arrays from 64 entries (those up to 256 entries are minor
   allocations). *)
let test_cancel_heavy_words () =
  Alcotest.(check int) "minor words over 500 rounds" 3_098_500
    (minor_words (fun () ->
         for _ = 1 to 500 do
           let q = Sim.Event_queue.create () in
           let hs =
             Array.init 1024 (fun i ->
                 Sim.Event_queue.add q ~time:(Sim.Time.ns (due i))
                   (fun () -> ()))
           in
           Array.iteri
             (fun i h -> if i land 1 = 0 then Sim.Event_queue.cancel q h)
             hs;
           let rec drain () =
             match Sim.Event_queue.pop q with Some _ -> drain () | None -> ()
           in
           drain ()
         done))

let suite =
  [
    Alcotest.test_case "FIFO at equal times" `Quick test_fifo_same_time;
    Alcotest.test_case "time ordering" `Quick test_time_order;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "next_time skips cancelled" `Quick
      test_next_time_skips_cancelled;
    Alcotest.test_case "null handle" `Quick test_null_handle;
    Alcotest.test_case "stale handle is inert" `Quick test_stale_handle_inert;
    Alcotest.test_case "mass cancellation drains" `Quick test_mass_cancel_drain;
    Alcotest.test_case "2^21-pending overflow message" `Slow
      test_overflow_message;
    Alcotest.test_case "churn allocates nothing" `Quick test_churn_words;
    Alcotest.test_case "add/cancel allocates nothing" `Quick
      test_add_cancel_words;
    Alcotest.test_case "cancel-heavy minor words" `Quick
      test_cancel_heavy_words;
    QCheck_alcotest.to_alcotest qcheck_heap_order;
    QCheck_alcotest.to_alcotest qcheck_cancel_count;
  ]
