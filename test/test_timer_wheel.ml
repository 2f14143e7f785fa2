(* Model-based suite for the hierarchical timing wheel: replay a random
   interleaving of arm / advance against the event heap (the structure
   the wheel replaces for dense timers) and require the exact same fire
   order. Both sides see tick-quantized due times,
   so the equivalence is exact: due order first, arm (FIFO) order
   within a tick — the heap's (time, seq) contract.

   Deltas are drawn across the level-0 block span (256 ticks) and well
   past it so cascades, block crossings and multi-level placement all
   run; negative deltas exercise the past-due clamp. *)

let tick = 16 (* ns; small so short op lists still cross blocks *)

type op =
  | Arm of int (* signed delta ns from current time *)
  | Advance of int (* delta ns forward *)
  | Advance_next (* advance exactly to the wheel's attention point *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> Arm (d - 64)) (int_bound 20_000));
        (3, map (fun d -> Advance d) (int_bound 8_000));
        (2, return Advance_next);
      ])

let print_op = function
  | Arm d -> Printf.sprintf "Arm %+d" d
  | Advance d -> Printf.sprintf "Advance %d" d
  | Advance_next -> "Advance_next"

let ops_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_op l))
    QCheck.Gen.(list_size (int_bound 300) op_gen)

(* Quantize as the wheel does: round the due time up to the tick, then
   clamp to the current position (a past due time fires at the next
   advance). *)
let quantize ~cur_tick due_ns =
  let t = (Stdlib.max 0 due_ns + tick - 1) / tick in
  Stdlib.max t cur_tick

let replay ops =
  let wheel_fired = ref [] in
  let w =
    Sim.Timer_wheel.create ~tick_ns:tick ~initial_capacity:4
      ~on_fire:(fun ~kind:_ ~flow -> wheel_fired := flow :: !wheel_fired)
      ()
  in
  let heap_fired = ref [] in
  let oracle = Sim.Event_queue.create ~initial_capacity:4 () in
  let now = ref 0 in
  let next_id = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let arm delta =
    let id = !next_id in
    incr next_id;
    let due_ns = Stdlib.max 0 (!now + delta) in
    let cur_tick = Sim.Timer_wheel.now_tick w in
    Sim.Timer_wheel.arm w ~due_ns ~kind:0 ~flow:id;
    ignore
      (Sim.Event_queue.add oracle
         ~time:(Sim.Time.of_ns_int (quantize ~cur_tick due_ns * tick))
         (fun () -> heap_fired := id :: !heap_fired))
  in
  let advance_to now_ns =
    now := Stdlib.max !now now_ns;
    Sim.Timer_wheel.advance w ~now_ns:!now;
    let target_ns = !now / tick * tick in
    let rec drain () =
      let t = Sim.Event_queue.next_time_ns oracle in
      if t >= 0 && t <= target_ns then begin
        (Sim.Event_queue.pop_action_exn oracle) ();
        drain ()
      end
    in
    drain ();
    check (List.rev !wheel_fired = List.rev !heap_fired);
    check (Sim.Timer_wheel.pending w = Sim.Event_queue.live_count oracle)
  in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | Arm delta -> arm delta
        | Advance delta -> advance_to (!now + delta)
        | Advance_next -> (
            match Sim.Timer_wheel.next_due_ns w with
            | -1 -> check (Sim.Timer_wheel.pending w = 0)
            | ns ->
                (* Attention points are never in the past and advancing
                   through them must preserve the heap's fire order. *)
                check (ns >= Sim.Timer_wheel.now_tick w * tick);
                advance_to ns))
    ops;
  (* Drain everything left by walking the attention points (advance
     cost is per block, so a single far jump would crawl through
     millions of empty blocks): the full sequences must agree. *)
  let rec drain_all fuel =
    if fuel = 0 then check false
    else if !ok then
      match Sim.Timer_wheel.next_due_ns w with
      | -1 -> ()
      | ns ->
          advance_to ns;
          drain_all (fuel - 1)
  in
  drain_all 100_000;
  check (Sim.Timer_wheel.pending w = 0);
  !ok

let qcheck_oracle =
  QCheck.Test.make
    ~name:"wheel matches the event heap under arm/advance"
    ~count:300 ops_arb replay

let qcheck_oracle_dense =
  (* Tight deltas: everything lands in one level-0 block, maximising
     same-tick FIFO collisions. *)
  let gen =
    QCheck.Gen.(
      list_size (int_bound 400)
        (frequency
           [
             (8, map (fun d -> Arm (d - 8)) (int_bound 64));
             (3, map (fun d -> Advance d) (int_bound 48));
             (2, return Advance_next);
           ]))
  in
  QCheck.Test.make ~name:"wheel matches the heap under same-tick collisions"
    ~count:300
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map print_op l)) gen)
    replay

(* --- unit tests --------------------------------------------------------- *)

let test_exact_due_firing () =
  let fired = ref [] in
  let at_ns = ref 0 in
  let w =
    Sim.Timer_wheel.create
      ~on_fire:(fun ~kind:_ ~flow -> fired := (flow, !at_ns) :: !fired)
      ()
  in
  let tick = Sim.Timer_wheel.tick_ns w in
  (* Across level-0, level-1 and level-2 distances. *)
  let dues = [ (0, 3 * tick); (1, 300 * tick); (2, 70_000 * tick) ] in
  List.iter
    (fun (id, due_ns) -> Sim.Timer_wheel.arm w ~due_ns ~kind:0 ~flow:id)
    dues;
  (* Walking the attention points must fire each timer at exactly its
     quantized due tick, never early. *)
  let rec walk () =
    match Sim.Timer_wheel.next_due_ns w with
    | -1 -> ()
    | ns ->
        at_ns := ns;
        Sim.Timer_wheel.advance w ~now_ns:ns;
        walk ()
  in
  walk ();
  List.iter
    (fun (id, at) ->
      Alcotest.(check int)
        (Printf.sprintf "flow %d fires at its due tick" id)
        (List.assoc id dues) at)
    !fired;
  Alcotest.(check (list int))
    "due order" [ 0; 1; 2 ]
    (List.rev_map fst !fired);
  Alcotest.(check int) "drained" 0 (Sim.Timer_wheel.pending w)

(* Regression: arming past the ~78 h horizon used to raise
   [Invalid_argument], failing the run. Beyond-horizon timers now park in an overflow list and are re-homed
   by the top-level cascade, firing at their exact quantized due time.
   A wheel holding only parked timers points its attention at the era
   where the earliest of them can be re-homed. *)
let test_overflow_parking () =
  let fired = ref [] in
  let at_ns = ref 0 in
  let w =
    Sim.Timer_wheel.create
      ~on_fire:(fun ~kind:_ ~flow -> fired := (flow, !at_ns) :: !fired)
      ()
  in
  let tick = Sim.Timer_wheel.tick_ns w in
  let horizon = Sim.Timer_wheel.horizon_ns w in
  (* One era ahead, two eras ahead (multi-rotation), and a near timer
     that must stay unaffected and fire first. *)
  let d_near = 5 * tick in
  let d_one = horizon + (7 * tick) in
  let d_two = horizon + 1 + (horizon + 1) + (3 * tick) in
  Sim.Timer_wheel.arm w ~due_ns:d_one ~kind:0 ~flow:1;
  Alcotest.(check int) "attention at the parked timer's era"
    (horizon + 1) (Sim.Timer_wheel.next_due_ns w);
  Sim.Timer_wheel.arm w ~due_ns:d_two ~kind:0 ~flow:2;
  Sim.Timer_wheel.arm w ~due_ns:d_near ~kind:0 ~flow:0;
  Alcotest.(check int) "all pending" 3 (Sim.Timer_wheel.pending w);
  (* iter_pending must see parked timers with their true due time. *)
  let seen = ref [] in
  Sim.Timer_wheel.iter_pending w ~f:(fun ~due_ns ~kind:_ ~flow ->
      seen := (flow, due_ns) :: !seen);
  Alcotest.(check bool)
    "iter_pending reports the parked timer" true
    (List.mem_assoc 1 !seen && List.assoc 1 !seen >= horizon);
  let rec walk () =
    match Sim.Timer_wheel.next_due_ns w with
    | -1 -> ()
    | ns ->
        at_ns := ns;
        Sim.Timer_wheel.advance w ~now_ns:ns;
        walk ()
  in
  walk ();
  let quantize ns = (ns + tick - 1) / tick * tick in
  Alcotest.(check (list (pair int int)))
    "each timer fires at its quantized due, in due order"
    [ (0, quantize d_near); (1, quantize d_one); (2, quantize d_two) ]
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Sim.Timer_wheel.pending w)

let test_alloc_free_churn () =
  (* The engine contract: steady-state arm/fire churn allocates no
     minor words. Each firing re-arms its timer, as a round cohort
     does, and the wheel advances one attention point at a time. Warm
     the wheel up past its growth phase first. *)
  let fired = ref 0 in
  let rec w =
    lazy
      (Sim.Timer_wheel.create ~initial_capacity:256
         ~on_fire:(fun ~kind:_ ~flow ->
           incr fired;
           let w = Lazy.force w in
           let period = (flow * 977 mod 1021) + 1 in
           Sim.Timer_wheel.arm w
             ~due_ns:
               ((Sim.Timer_wheel.now_tick w + period)
               * Sim.Timer_wheel.tick_ns w)
             ~kind:0 ~flow)
         ())
  in
  let w = Lazy.force w in
  let walk until =
    while !fired < until do
      Sim.Timer_wheel.advance w ~now_ns:(Sim.Timer_wheel.next_due_ns w)
    done
  in
  for i = 0 to 99 do
    Sim.Timer_wheel.arm w
      ~due_ns:((i + 1) * Sim.Timer_wheel.tick_ns w)
      ~kind:0 ~flow:i
  done;
  walk 1_000;
  let before = Gc.minor_words () in
  walk 11_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "0 minor words across 10k arm/fire (got %.0f)" words)
    true (words = 0.)

(* --- iteration / drain (the snapshot path) ---------------------------- *)

let test_iter_pending_and_drain () =
  let fired = ref 0 in
  let w =
    Sim.Timer_wheel.create ~initial_capacity:4
      ~on_fire:(fun ~kind:_ ~flow:_ -> incr fired)
      ()
  in
  let tick = Sim.Timer_wheel.tick_ns w in
  for i = 0 to 49 do
    let due_ns = ((i * 37 mod 600) + 1) * tick in
    Sim.Timer_wheel.arm w ~due_ns ~kind:(i mod 3) ~flow:i
  done;
  let seen = ref 0 in
  Sim.Timer_wheel.iter_pending w ~f:(fun ~due_ns:_ ~kind:_ ~flow:_ ->
      incr seen);
  Alcotest.(check int) "iter visits every armed timer" 50 !seen;
  Sim.Timer_wheel.drain w;
  Alcotest.(check int) "drain empties the wheel" 0
    (Sim.Timer_wheel.pending w);
  Alcotest.(check int) "no attention point after drain" (-1)
    (Sim.Timer_wheel.next_due_ns w);
  seen := 0;
  Sim.Timer_wheel.iter_pending w ~f:(fun ~due_ns:_ ~kind:_ ~flow:_ ->
      incr seen);
  Alcotest.(check int) "nothing to visit after drain" 0 !seen;
  Sim.Timer_wheel.advance w ~now_ns:(1000 * tick);
  Alcotest.(check int) "a drained timer never fires" 0 !fired;
  (* Every node is free again: the wheel takes as many timers anew. *)
  for i = 0 to 49 do
    Sim.Timer_wheel.arm w ~due_ns:((1001 + i) * tick) ~kind:0 ~flow:i
  done;
  Sim.Timer_wheel.advance w ~now_ns:(1100 * tick);
  Alcotest.(check int) "re-armed timers fire" 50 !fired

(* Rebuilding a wheel by re-arming iter_pending's visit order must
   reproduce the original's entire future firing sequence — the
   correctness contract of snapshot save/restore. *)
let rebuild_prop =
  QCheck.Test.make ~count:100
    ~name:"iter_pending order rebuilds the exact firing sequence"
    QCheck.(
      make
        ~print:(fun l -> String.concat ";" (List.map string_of_int l))
        Gen.(list_size (int_range 1 120) (int_range 0 800)))
    (fun due_ticks ->
      let fires w =
        let log = ref [] in
        let w =
          match w with
          | `Fresh advance_to ->
              let w =
                Sim.Timer_wheel.create ~initial_capacity:4
                  ~on_fire:(fun ~kind ~flow -> log := (kind, flow) :: !log)
                  ()
              in
              Sim.Timer_wheel.advance w
                ~now_ns:(advance_to * Sim.Timer_wheel.tick_ns w);
              w
        in
        (w, log)
      in
      (* original: arm everything at position 3, advance partway *)
      let w1, log1 = fires (`Fresh 3) in
      let tick = Sim.Timer_wheel.tick_ns w1 in
      List.iteri
        (fun i d ->
          Sim.Timer_wheel.arm w1 ~due_ns:((3 + 1 + d) * tick) ~kind:(i mod 5)
            ~flow:i)
        due_ticks;
      let mid = (3 + 200) * tick in
      Sim.Timer_wheel.advance w1 ~now_ns:mid;
      let prefix = List.rev !log1 in
      (* snapshot the survivors in visit order *)
      let saved = ref [] in
      Sim.Timer_wheel.iter_pending w1 ~f:(fun ~due_ns ~kind ~flow ->
          saved := (due_ns, kind, flow) :: !saved);
      let saved = List.rev !saved in
      (* rebuild: fresh wheel advanced to the same position, re-arm *)
      let w2, log2 = fires (`Fresh (mid / tick)) in
      List.iter
        (fun (due_ns, kind, flow) -> Sim.Timer_wheel.arm w2 ~due_ns ~kind ~flow)
        saved;
      (* both run to the horizon of interest *)
      let horizon = (3 + 1100) * tick in
      log1 := [];
      Sim.Timer_wheel.advance w1 ~now_ns:horizon;
      Sim.Timer_wheel.advance w2 ~now_ns:horizon;
      ignore prefix;
      List.rev !log1 = List.rev !log2)

(* Rounding a due time up to the tick must not overflow: a due time of
   [max_int] used to wrap past the clock, clamp to the current tick and
   fire on the first advance, before its requested time. The latest due
   time [arm] takes parks in the overflow list and stays pending. *)
let test_refuses_overflowing_due () =
  let fired = ref 0 in
  let w =
    Sim.Timer_wheel.create ~on_fire:(fun ~kind:_ ~flow:_ -> incr fired) ()
  in
  let tick = Sim.Timer_wheel.tick_ns w in
  let last = Sim.Timer_wheel.max_due_ns w in
  Alcotest.(check int) "the last whole tick" (max_int - tick + 1) last;
  Alcotest.check_raises "max_int"
    (Invalid_argument "Timer_wheel.arm: due time rounds up past max_int")
    (fun () -> Sim.Timer_wheel.arm w ~due_ns:max_int ~kind:0 ~flow:0);
  Alcotest.(check int) "nothing armed" 0 (Sim.Timer_wheel.pending w);
  Sim.Timer_wheel.arm w ~due_ns:last ~kind:0 ~flow:1;
  Alcotest.(check bool) "attention far ahead" true
    (Sim.Timer_wheel.next_due_ns w > Sim.Timer_wheel.horizon_ns w);
  Sim.Timer_wheel.advance w ~now_ns:1_000_000_000;
  Alcotest.(check int) "nothing fires within a second" 0 !fired;
  Alcotest.(check int) "still pending" 1 (Sim.Timer_wheel.pending w);
  Sim.Timer_wheel.iter_pending w ~f:(fun ~due_ns ~kind:_ ~flow:_ ->
      Alcotest.(check int) "parked at its due time" last due_ns)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_oracle;
    QCheck_alcotest.to_alcotest qcheck_oracle_dense;
    Alcotest.test_case "iter_pending visits all; drain empties the wheel"
      `Quick test_iter_pending_and_drain;
    QCheck_alcotest.to_alcotest rebuild_prop;
    Alcotest.test_case "attention walk fires at exact due ticks" `Quick
      test_exact_due_firing;
    Alcotest.test_case "beyond-horizon timers park and fire (overflow)" `Quick
      test_overflow_parking;
    Alcotest.test_case "steady-state arm/fire allocates nothing" `Quick
      test_alloc_free_churn;
    Alcotest.test_case "a due time past the last whole tick is refused"
      `Quick test_refuses_overflowing_due;
  ]
