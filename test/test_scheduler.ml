let test_run_order () =
  let s = Sim.Scheduler.create () in
  let log = ref [] in
  ignore (Sim.Scheduler.at s (Sim.Time.ms 5) (fun () -> log := 5 :: !log));
  ignore (Sim.Scheduler.at s (Sim.Time.ms 1) (fun () -> log := 1 :: !log));
  ignore (Sim.Scheduler.at s (Sim.Time.ms 3) (fun () -> log := 3 :: !log));
  Sim.Scheduler.run s;
  Alcotest.(check (list int)) "events in order" [ 1; 3; 5 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 5.
    (Sim.Time.to_ms (Sim.Scheduler.now s))

let test_until () =
  let s = Sim.Scheduler.create () in
  let fired = ref 0 in
  ignore (Sim.Scheduler.at s (Sim.Time.ms 1) (fun () -> incr fired));
  ignore (Sim.Scheduler.at s (Sim.Time.ms 10) (fun () -> incr fired));
  Sim.Scheduler.run ~until:(Sim.Time.ms 5) s;
  Alcotest.(check int) "only early event" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 5.
    (Sim.Time.to_ms (Sim.Scheduler.now s));
  Sim.Scheduler.run s;
  Alcotest.(check int) "remaining event fires later" 2 !fired

let test_nested_scheduling () =
  let s = Sim.Scheduler.create () in
  let log = ref [] in
  ignore
    (Sim.Scheduler.at s (Sim.Time.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.Scheduler.after s (Sim.Time.ms 1) (fun () ->
                log := "inner" :: !log))));
  Sim.Scheduler.run s;
  Alcotest.(check (list string)) "nested event fires" [ "outer"; "inner" ]
    (List.rev !log);
  Alcotest.(check (float 1e-9)) "final clock" 2.
    (Sim.Time.to_ms (Sim.Scheduler.now s))

let test_past_rejected () =
  let s = Sim.Scheduler.create () in
  ignore (Sim.Scheduler.at s (Sim.Time.ms 2) (fun () -> ()));
  Sim.Scheduler.run s;
  Alcotest.check_raises "at in the past"
    (Invalid_argument "Scheduler.at: 1ms is before now (2ms)") (fun () ->
      ignore (Sim.Scheduler.at s (Sim.Time.ms 1) (fun () -> ())))

let test_negative_delay_clamped () =
  let s = Sim.Scheduler.create () in
  let fired = ref false in
  ignore (Sim.Scheduler.after s (Sim.Time.ms (-5)) (fun () -> fired := true));
  Sim.Scheduler.run s;
  Alcotest.(check bool) "fires immediately" true !fired

let test_every () =
  let s = Sim.Scheduler.create () in
  let count = ref 0 in
  let handle = Sim.Scheduler.every s (Sim.Time.ms 10) (fun () -> incr count) in
  Sim.Scheduler.run ~until:(Sim.Time.ms 55) s;
  Alcotest.(check int) "5 periods in 55ms" 5 !count;
  Sim.Scheduler.cancel s !handle;
  Sim.Scheduler.run ~until:(Sim.Time.ms 200) s;
  Alcotest.(check int) "cancelled periodic stops" 5 !count

let test_cancel_pending () =
  let s = Sim.Scheduler.create () in
  let fired = ref false in
  let h = Sim.Scheduler.at s (Sim.Time.ms 1) (fun () -> fired := true) in
  Sim.Scheduler.cancel s h;
  Sim.Scheduler.run s;
  Alcotest.(check bool) "cancelled stays silent" false !fired

let test_step () =
  let s = Sim.Scheduler.create () in
  ignore (Sim.Scheduler.at s (Sim.Time.ms 1) (fun () -> ()));
  ignore (Sim.Scheduler.at s (Sim.Time.ms 2) (fun () -> ()));
  Alcotest.(check bool) "step 1" true (Sim.Scheduler.step s);
  Alcotest.(check bool) "step 2" true (Sim.Scheduler.step s);
  Alcotest.(check bool) "step empty" false (Sim.Scheduler.step s);
  Alcotest.(check int) "nothing pending" 0 (Sim.Scheduler.pending s)

let test_determinism () =
  let run () =
    let s = Sim.Scheduler.create ~seed:99 () in
    let acc = ref [] in
    for i = 1 to 20 do
      ignore
        (Sim.Scheduler.at s
           (Sim.Time.us (Sim.Rng.int (Sim.Scheduler.rng s) 1000))
           (fun () -> acc := i :: !acc))
    done;
    Sim.Scheduler.run s;
    !acc
  in
  Alcotest.(check (list int)) "same seed, same order" (run ()) (run ())

(* restore_clock teleports the clock for snapshot-restore and partition
   barriers — but never backwards past work: an earlier pending event
   (heap or wheel) would then fire "in the past", so it must raise. *)
let test_restore_clock_guard () =
  let s = Sim.Scheduler.create ~seed:1 () in
  ignore (Sim.Scheduler.at s (Sim.Time.ms 5) (fun () -> ()));
  (match Sim.Scheduler.restore_clock s (Sim.Time.ms 10) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "pending event at 5ms: jump to 10ms must raise");
  (* Jumping exactly onto the earliest pending event is allowed (the
     partition-barrier case: events at the break are still pending). *)
  Sim.Scheduler.restore_clock s (Sim.Time.ms 5);
  Alcotest.(check int) "clock moved"
    (Sim.Time.to_ns_int (Sim.Time.ms 5))
    (Sim.Time.to_ns_int (Sim.Scheduler.now s));
  let fired = ref false in
  ignore (Sim.Scheduler.at s (Sim.Time.ms 7) (fun () -> fired := true));
  Sim.Scheduler.run s;
  Alcotest.(check bool) "events after the jump still fire" true !fired

let test_restore_clock_empty () =
  let s = Sim.Scheduler.create ~seed:1 () in
  Sim.Scheduler.restore_clock s (Sim.Time.sec 9);
  Alcotest.(check int) "free jump on an idle scheduler"
    (Sim.Time.to_ns_int (Sim.Time.sec 9))
    (Sim.Time.to_ns_int (Sim.Scheduler.now s))

(* Exact minor words of one [every] 10 us timer run to 10 s, a million
   dispatches. The 2 words are the [Some] of [run]'s optional [~until];
   the dispatch loop allocates nothing, with or without a trace ring
   whose categories mask the scheduler out. The values were read on
   OCaml 5.1.1 with the dev profile, which compiles with -opaque. *)
let periodic_words ?tracer () =
  let s = Sim.Scheduler.create () in
  Sim.Scheduler.set_tracer s tracer;
  let count = ref 0 in
  ignore (Sim.Scheduler.every s (Sim.Time.us 10) (fun () -> incr count));
  let before = Gc.minor_words () in
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) s;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "a million dispatches" 1_000_000 !count;
  words

let test_periodic_words () =
  Alcotest.(check int) "minor words, no tracer" 2 (periodic_words ());
  Alcotest.(check int) "minor words, masked tracer" 2
    (periodic_words ~tracer:(Trace.create ~capacity:1024 ()) ())

let suite =
  [
    Alcotest.test_case "run order" `Quick test_run_order;
    Alcotest.test_case "restore_clock guards pending events" `Quick
      test_restore_clock_guard;
    Alcotest.test_case "restore_clock on idle scheduler" `Quick
      test_restore_clock_empty;
    Alcotest.test_case "run ~until" `Quick test_until;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "past events rejected" `Quick test_past_rejected;
    Alcotest.test_case "negative delay clamped" `Quick
      test_negative_delay_clamped;
    Alcotest.test_case "periodic events" `Quick test_every;
    Alcotest.test_case "cancel pending" `Quick test_cancel_pending;
    Alcotest.test_case "manual stepping" `Quick test_step;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "periodic timer minor words" `Quick
      test_periodic_words;
  ]
