(* Unit tests for the structure-of-arrays flow table: row lifecycle
   (alloc resets every column, free recycles through the free list),
   the per-row xorshift streams, the footprint per row, and snapshot
   restore, which must refuse counters and free lists it cannot
   trust. *)

module Ft = Tcp.Flow_table

let test_alloc_reset () =
  let t = Ft.create ~initial_capacity:2 () in
  let r = Ft.alloc t in
  Alcotest.(check bool) "live" true (Ft.is_live t r);
  Alcotest.(check int) "in_use" 1 (Ft.in_use t);
  (* Dirty every column, free, re-alloc: the recycled row must come
     back pristine. *)
  t.cwnd.(r) <- 9999.;
  t.ssthresh.(r) <- 7.;
  t.budget.(r) <- 123;
  t.phase.(r) <- 3;
  t.timer.(r) <- 42;
  Ft.free t r;
  Alcotest.(check bool) "freed" false (Ft.is_live t r);
  let r' = Ft.alloc t in
  Alcotest.(check int) "free list reuses the row" r r';
  Alcotest.(check (float 0.)) "cwnd reset" 0. t.cwnd.(r');
  Alcotest.(check bool) "ssthresh reset" true (t.ssthresh.(r') = infinity);
  Alcotest.(check int) "budget unbounded" (-1) t.budget.(r');
  Alcotest.(check int) "phase reset" 0 t.phase.(r');
  Alcotest.(check int) "timer none" (-1) t.timer.(r')

let test_growth_and_many_rows () =
  let t = Ft.create ~initial_capacity:2 () in
  let rows = Array.init 1000 (fun _ -> Ft.alloc t) in
  Alcotest.(check int) "all live" 1000 (Ft.in_use t);
  (* Growth replaces the columns: read them after the last alloc. *)
  Array.iteri (fun i r -> t.budget.(r) <- i) rows;
  Array.iteri
    (fun i r ->
      if t.budget.(r) <> i then Alcotest.failf "row %d clobbered by growth" i)
    rows;
  Array.iter (fun r -> Ft.free t r) rows;
  Alcotest.(check int) "all freed" 0 (Ft.in_use t)

let test_rng_streams () =
  let t = Ft.create ~initial_capacity:4 () in
  let a = Ft.alloc t and b = Ft.alloc t in
  Ft.seed_rng t a 42;
  Ft.seed_rng t b 42;
  let xs = List.init 5 (fun _ -> Ft.rng_next t a) in
  let ys = List.init 5 (fun _ -> Ft.rng_next t b) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  Ft.seed_rng t b 43;
  let zs = List.init 5 (fun _ -> Ft.rng_next t b) in
  Alcotest.(check bool) "different seed diverges" true (xs <> zs);
  (* The all-zero seed must not produce the degenerate all-zero
     stream. *)
  Ft.seed_rng t a 0;
  Alcotest.(check bool) "zero seed remapped" true (Ft.rng_next t a <> 0);
  (* Draws stay positive: the many-flows engine's uniform, the low 53
     bits times 2^-53, then lies in [0, 1). *)
  for _ = 1 to 1000 do
    let x = Ft.rng_next t a in
    if x <= 0 then Alcotest.failf "rng_next not positive: %d" x
  done

(* Footprint: each row costs one word per column, all unboxed. *)
let test_words_per_row () =
  let words cap =
    Obj.reachable_words (Obj.repr (Ft.create ~initial_capacity:cap ()))
  in
  Alcotest.(check int) "1,000 more rows" (7 * 1000) (words 2000 - words 1000)

(* --- snapshot ------------------------------------------------------------ *)

let image ?(tamper = ignore) t =
  let w = Sim.Snapshot.writer () in
  Ft.save t ~prefix:"ft." w;
  tamper w;
  Sim.Snapshot.of_string (Sim.Snapshot.to_string w)

(* A 4-row image with rows 0 and 1 live, one section overwritten: the
   restore must fail with a message naming [section]. *)
let check_refused ~section tamper () =
  let t = Ft.create ~initial_capacity:4 () in
  ignore (Ft.alloc t);
  ignore (Ft.alloc t);
  match Ft.restore (Ft.create ()) ~prefix:"ft." (image ~tamper t) with
  | () -> Alcotest.failf "an image with a bad %s restored" section
  | exception Sim.Snapshot.Corrupt msg ->
      if not (Test_policy.contains msg section) then
        Alcotest.failf "%S does not name %s" msg section

let put_int name v w = Sim.Snapshot.put_int w name v

(* Exact minor words of a checkpoint round trip in memory: save an
   [n]-row table and an [n]-timer wheel into one image, then restore
   both into fresh structures. The columns travel as whole-array
   sections, so the words grow by 4 per row, not per element of every
   column; the pins at two sizes fix that slope (40,000 words per 10,000
   rows) as well as the constant (526 words, the fresh wheel's record
   among them). The values were read on OCaml 5.1.1 with the dev
   profile, which compiles with -opaque. *)
let round_trip_words n =
  let t = Ft.create ~initial_capacity:n () in
  for i = 0 to n - 1 do
    let r = Ft.alloc t in
    t.cwnd.(r) <- float_of_int (1 + (i mod 97));
    t.budget.(r) <- i * 1448;
    t.timer.(r) <- i;
    Ft.seed_rng t r (i + 1)
  done;
  let wheel () =
    Sim.Timer_wheel.create ~initial_capacity:n
      ~on_fire:(fun ~kind:_ ~flow:_ -> ())
      ()
  in
  let w = wheel () in
  let tick = Sim.Timer_wheel.tick_ns w in
  for i = 0 to n - 1 do
    Sim.Timer_wheel.arm w ~due_ns:(((i * 977 mod 7919) + 1) * tick) ~kind:0
      ~flow:i
  done;
  let copy = Ft.create ~initial_capacity:n () in
  let before = Gc.minor_words () in
  let wr = Sim.Snapshot.writer () in
  Ft.save t ~prefix:"ft." wr;
  let pending = Sim.Timer_wheel.pending w in
  let due = Array.make pending 0 and flows = Array.make pending 0 in
  let i = ref 0 in
  Sim.Timer_wheel.iter_pending w ~f:(fun ~due_ns ~kind:_ ~flow ->
      due.(!i) <- due_ns;
      flows.(!i) <- flow;
      incr i);
  Sim.Snapshot.put_int_array wr "wheel.due_ns" due;
  Sim.Snapshot.put_int_array wr "wheel.flow" flows;
  let rd = Sim.Snapshot.of_string (Sim.Snapshot.to_string wr) in
  Ft.restore copy ~prefix:"ft." rd;
  let due = Sim.Snapshot.get_int_array rd "wheel.due_ns" in
  let flows = Sim.Snapshot.get_int_array rd "wheel.flow" in
  let w2 = wheel () in
  Array.iteri
    (fun i due_ns -> Sim.Timer_wheel.arm w2 ~due_ns ~kind:0 ~flow:flows.(i))
    due;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "every timer re-armed" n (Sim.Timer_wheel.pending w2);
  Alcotest.(check int) "every row restored" n (Ft.in_use copy);
  words

let test_round_trip_words () =
  Alcotest.(check int) "minor words, 10,000 rows and timers" 40_526
    (round_trip_words 10_000);
  Alcotest.(check int) "minor words, 20,000 rows and timers" 80_526
    (round_trip_words 20_000)

(* Random alloc/free sequences: [in_use] equals a recount of live rows,
   and a save -> restore copy hands out the same rows in the same
   order as the original, through growth. *)
let qcheck_restore_allocates_alike =
  QCheck2.Test.make ~count:200
    ~name:"in_use recounts; a restored copy allocates the same rows"
    QCheck2.Gen.(list_size (int_range 0 60) (pair bool nat))
    (fun ops ->
      let t = Ft.create ~initial_capacity:2 () in
      let live = ref [] in
      List.iter
        (fun (alloc, k) ->
          match !live with
          | _ :: _ when not alloc ->
              let r = List.nth !live (k mod List.length !live) in
              Ft.free t r;
              live := List.filter (( <> ) r) !live
          | _ -> live := Ft.alloc t :: !live)
        ops;
      let recount = ref 0 in
      for i = 0 to Ft.capacity t - 1 do
        if Ft.is_live t i then incr recount
      done;
      if Ft.in_use t <> !recount then
        QCheck2.Test.fail_reportf "in_use %d but %d live rows" (Ft.in_use t)
          !recount;
      let copy = Ft.create () in
      Ft.restore copy ~prefix:"ft." (image t);
      let next tbl = List.init (Ft.capacity t + 3) (fun _ -> Ft.alloc tbl) in
      next t = next copy)

(* The starting size changes only the footprint: a table created at 2
   rows, growing under a ceiling of the sequence's peak of live rows,
   and one created at that peak hand out the same rows in the same
   order, and the growing one never passes its ceiling. Allocations
   outnumber frees 3:2, so the peaks cross several doublings. *)
let qcheck_growth_allocates_alike =
  QCheck2.Test.make ~count:200
    ~name:"a growing table hands out a pre-sized one's rows"
    QCheck2.Gen.(
      list_size (int_range 0 200)
        (pair (frequencyl [ (3, true); (2, false) ]) nat))
    (fun ops ->
      let _, peak =
        List.fold_left
          (fun (live, peak) (alloc, _) ->
            let live = if alloc || live = 0 then live + 1 else live - 1 in
            (live, Int.max peak live))
          (0, 0) ops
      in
      let ceiling = Int.max 1 peak in
      let grown = Ft.create ~initial_capacity:2 ~max_capacity:ceiling ()
      and sized = Ft.create ~initial_capacity:ceiling () in
      let live = ref [] in
      List.for_all
        (fun (alloc, k) ->
          (match !live with
          | _ :: _ when not alloc ->
              let r = List.nth !live (k mod List.length !live) in
              Ft.free grown r;
              Ft.free sized r;
              live := List.filter (( <> ) r) !live
          | _ ->
              let r = Ft.alloc grown and r' = Ft.alloc sized in
              if r <> r' then
                QCheck2.Test.fail_reportf "the growing table gave row %d, the \
                                           pre-sized one %d" r r';
              live := r :: !live);
          Ft.capacity grown <= ceiling)
        ops)

let suite =
  [
    Alcotest.test_case "alloc resets a recycled row" `Quick test_alloc_reset;
    Alcotest.test_case "growth preserves rows" `Quick test_growth_and_many_rows;
    Alcotest.test_case "per-row xorshift streams" `Quick test_rng_streams;
    Alcotest.test_case "words per row" `Quick test_words_per_row;
    Alcotest.test_case "snapshot round trip minor words" `Quick
      test_round_trip_words;
    Alcotest.test_case "restore: free_head = 99" `Quick
      (check_refused ~section:"ft.free_head" (put_int "ft.free_head" 99));
    Alcotest.test_case "restore: free_head at a live row" `Quick
      (check_refused ~section:"ft.free_head" (put_int "ft.free_head" 0));
    Alcotest.test_case "restore: in_use = -7" `Quick
      (check_refused ~section:"ft.in_use" (put_int "ft.in_use" (-7)));
    QCheck_alcotest.to_alcotest qcheck_restore_allocates_alike;
    QCheck_alcotest.to_alcotest qcheck_growth_allocates_alike;
  ]
