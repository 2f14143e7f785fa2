(* The bounded ring tracer and the metrics registry: wrap-around
   drop-oldest retention with exact [total]/[dropped] accounting,
   category-mask filtering at the emit site, oldest-first iteration,
   and the registry's duplicate rejection / registration-order
   contract that the CSV exporters rely on. *)

let emit_n tr ?(code = Trace.Code.link_tx) ?(src = 1) n =
  for i = 1 to n do
    Trace.emit tr ~time_ns:(i * 1000) ~code ~src ~arg1:i ~arg2:(i * 2)
  done

let collect tr =
  let acc = ref [] in
  Trace.iter tr (fun ~time_ns ~code ~src ~arg1 ~arg2 ->
      acc := (time_ns, code, src, arg1, arg2) :: !acc);
  List.rev !acc

let test_basic () =
  let tr = Trace.create ~capacity:8 () in
  Alcotest.(check int) "capacity" 8 (Trace.capacity tr);
  Alcotest.(check int) "empty length" 0 (Trace.length tr);
  emit_n tr 3;
  Alcotest.(check int) "length" 3 (Trace.length tr);
  Alcotest.(check int) "total" 3 (Trace.total tr);
  Alcotest.(check int) "no drops yet" 0 (Trace.dropped tr);
  match collect tr with
  | [ (t0, c0, s0, a0, b0); _; (t2, _, _, _, _) ] ->
      Alcotest.(check int) "first time" 1000 t0;
      Alcotest.(check int) "first code" Trace.Code.link_tx c0;
      Alcotest.(check int) "first src" 1 s0;
      Alcotest.(check int) "first arg1" 1 a0;
      Alcotest.(check int) "first arg2" 2 b0;
      Alcotest.(check int) "last time" 3000 t2
  | l -> Alcotest.failf "expected 3 records, got %d" (List.length l)

let test_wrap_drop_oldest () =
  let tr = Trace.create ~capacity:4 () in
  emit_n tr 10;
  Alcotest.(check int) "length capped" 4 (Trace.length tr);
  Alcotest.(check int) "total counts all" 10 (Trace.total tr);
  Alcotest.(check int) "dropped = total - retained" 6 (Trace.dropped tr);
  (* Oldest-first iteration over the surviving suffix: 7,8,9,10. *)
  Alcotest.(check (list int)) "drop-oldest retention"
    [ 7000; 8000; 9000; 10000 ]
    (List.map (fun (t, _, _, _, _) -> t) (collect tr))

let test_mask_filtering () =
  let tr = Trace.create ~capacity:16 ~mask:Trace.Code.cat_tcp () in
  Trace.emit tr ~time_ns:1 ~code:Trace.Code.link_drop ~src:1 ~arg1:0 ~arg2:0;
  Trace.emit tr ~time_ns:2 ~code:Trace.Code.tcp_cwnd ~src:3 ~arg1:9 ~arg2:9;
  Trace.emit tr ~time_ns:3 ~code:Trace.Code.ifq_stall ~src:2 ~arg1:0 ~arg2:0;
  Alcotest.(check int) "only tcp retained" 1 (Trace.length tr);
  (* Masked-out events never existed: no total/dropped accounting. *)
  Alcotest.(check int) "total ignores masked" 1 (Trace.total tr);
  Trace.set_mask tr (Trace.Code.cat_tcp lor Trace.Code.cat_ifq);
  Trace.emit tr ~time_ns:4 ~code:Trace.Code.ifq_stall ~src:2 ~arg1:0 ~arg2:0;
  Alcotest.(check int) "widened mask admits ifq" 2 (Trace.length tr)

let test_default_mask_excludes_sched () =
  let tr = Trace.create ~capacity:4 () in
  Trace.emit tr ~time_ns:1 ~code:Trace.Code.sched_dispatch ~src:0 ~arg1:0
    ~arg2:0;
  Alcotest.(check int) "dispatch firehose off by default" 0 (Trace.length tr);
  Trace.set_mask tr Trace.Code.all_categories;
  Trace.emit tr ~time_ns:2 ~code:Trace.Code.sched_dispatch ~src:0 ~arg1:0
    ~arg2:0;
  Alcotest.(check int) "opt-in via all_categories" 1 (Trace.length tr)

let test_clear () =
  let tr = Trace.create ~capacity:4 () in
  emit_n tr 9;
  Trace.clear tr;
  Alcotest.(check int) "length reset" 0 (Trace.length tr);
  Alcotest.(check int) "total reset" 0 (Trace.total tr);
  emit_n tr 2;
  Alcotest.(check (list int)) "usable after clear" [ 1000; 2000 ]
    (List.map (fun (t, _, _, _, _) -> t) (collect tr))

let test_code_tables () =
  for code = 0 to Trace.Code.count - 1 do
    let name = Trace.Code.name code in
    Alcotest.(check bool)
      (Printf.sprintf "code %d has dotted name" code)
      true
      (String.contains name '.');
    let cat = Trace.Code.category code in
    Alcotest.(check bool)
      (Printf.sprintf "%s category is a single bit" name)
      true
      (cat > 0 && cat land (cat - 1) = 0);
    Alcotest.(check bool)
      (Printf.sprintf "%s category within all_categories" name)
      true
      (cat land Trace.Code.all_categories = cat)
  done;
  Alcotest.(check bool) "tcp.cwnd is the counter code" true
    (Trace.Code.is_counter Trace.Code.tcp_cwnd);
  Alcotest.(check bool) "instants are not counters" false
    (Trace.Code.is_counter Trace.Code.link_tx)

let test_registry () =
  let reg = Trace.Registry.create () in
  let x = ref 0. in
  Trace.Registry.register reg ~name:"conn/a/CurCwnd" (fun () -> !x);
  Trace.Registry.register reg ~name:"link/forward/delivered" (fun () -> 2.);
  Trace.Registry.register reg ~name:"host/0/ifq_occupancy" (fun () -> 3.);
  Alcotest.(check (list string)) "registration order preserved"
    [ "conn/a/CurCwnd"; "link/forward/delivered"; "host/0/ifq_occupancy" ]
    (Trace.Registry.names reg);
  x := 1.5;
  Alcotest.(check (array (float 0.))) "sample reads live probes"
    [| 1.5; 2.; 3. |]
    (Trace.Registry.sample reg);
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument
       "Trace.Registry.register: duplicate metric \"conn/a/CurCwnd\"")
    (fun () ->
      Trace.Registry.register reg ~name:"conn/a/CurCwnd" (fun () -> 0.))

(* Emission is the hot path: with the ring compiled in, an emit
   allocates nothing, whether its category is masked off or recorded.
   Exact minor words, read on OCaml 5.1.1 with the dev profile (which
   compiles with -opaque). *)
let test_emit_masked_no_alloc () =
  let tr = Trace.create ~capacity:64 ~mask:0 () in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.emit tr ~time_ns:i ~code:Trace.Code.link_tx ~src:1 ~arg1:i ~arg2:0
  done;
  Alcotest.(check int) "masked emit: minor words over 10,000" 0
    (int_of_float (Gc.minor_words () -. before))

let test_emit_enabled_no_alloc () =
  let tr = Trace.create ~capacity:64 () in
  (* Warm up: first wrap settles the ring. *)
  emit_n tr 128;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.emit tr ~time_ns:i ~code:Trace.Code.link_tx ~src:1 ~arg1:i ~arg2:0
  done;
  Alcotest.(check int) "enabled emit: minor words over 10,000" 0
    (int_of_float (Gc.minor_words () -. before))

let qcheck_ring_retention =
  QCheck.Test.make ~name:"ring retains exactly the newest min(n,cap) records"
    ~count:200
    QCheck.(pair (int_range 1 32) (int_range 0 200))
    (fun (cap, n) ->
      let tr = Trace.create ~capacity:cap () in
      emit_n tr n;
      let kept = List.map (fun (t, _, _, _, _) -> t) (collect tr) in
      let expect_len = min n cap in
      let expect =
        List.init expect_len (fun i -> (n - expect_len + i + 1) * 1000)
      in
      Trace.length tr = expect_len
      && Trace.total tr = n
      && Trace.dropped tr = n - expect_len
      && kept = expect)

let suite =
  [
    Alcotest.test_case "emit/iter basics" `Quick test_basic;
    Alcotest.test_case "wrap-around drops oldest" `Quick test_wrap_drop_oldest;
    Alcotest.test_case "category mask filtering" `Quick test_mask_filtering;
    Alcotest.test_case "default mask excludes sched" `Quick
      test_default_mask_excludes_sched;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "code tables" `Quick test_code_tables;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "masked emit allocation-free" `Quick
      test_emit_masked_no_alloc;
    Alcotest.test_case "enabled emit allocation-free" `Quick
      test_emit_enabled_no_alloc;
    QCheck_alcotest.to_alcotest qcheck_ring_retention;
  ]
