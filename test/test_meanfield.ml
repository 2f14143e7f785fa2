(* Tests for the mean-field TCP/RED oracle: the equilibrium solver's
   self-consistency, the stability boundary, the stable window below it
   on the paper path, and engine sweeps scored against the predictions
   (the fast one here, the catalog's through Experiments). *)

module M = Core.Meanfield

let path = M.paper_path

let test_equilibrium_consistent () =
  List.iter
    (fun n ->
      let e = M.equilibrium path ~flows:n in
      (* Reno's loss balance: p = 2 / (w (w + 2)). *)
      let demand = 2. /. (e.w_star *. (e.w_star +. 2.)) in
      let supply =
        Netsim.Queue_disc.red_drop_probability path.red ~avg:e.q_star
      in
      (* Both sides must meet at q* (unless the solver pinned the queue
         at its upper bound because even a full queue cannot drop
         enough — then demand exceeds supply). *)
      let bound = Stdlib.min (float_of_int path.buffer_packets) (2. *. path.red.max_th) in
      if e.q_star < bound -. 1e-6 then
        Alcotest.(check bool)
          (Printf.sprintf "N=%d: RED curve meets Reno demand (%.3g vs %.3g)" n
             supply demand)
          true
          (Float.abs (supply -. demand) <= 1e-6 +. (0.01 *. demand));
      (* Full utilization: N·w* = C·rtt*. *)
      let pipe =
        path.capacity *. e.rtt_star /. float_of_int (path.mss * n)
      in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "N=%d: window fills the pipe" n)
        pipe e.w_star;
      Alcotest.(check bool) "queue within bounds" true
        (e.q_star >= 0. && e.q_star <= bound +. 1e-9))
    [ 4; 64; 475; 2048 ]

let test_critical_count_verdicts () =
  let nc = M.critical_flows path in
  Alcotest.(check bool)
    (Printf.sprintf "critical count %d is positive" nc)
    true (nc > 1);
  (* Stable at the critical count and at 4x, oscillatory just below it
     and at 1/4x. The margin is not monotone in N (see the stable window
     test), so nothing here claims more. *)
  Alcotest.(check bool) "stable at the boundary" true
    (M.predict path ~flows:nc = M.Stable);
  Alcotest.(check bool) "stable at 4x" true
    (M.predict path ~flows:(4 * nc) = M.Stable);
  Alcotest.(check bool) "oscillatory just below" true
    (M.predict path ~flows:(nc - 1) = M.Oscillatory);
  Alcotest.(check bool) "oscillatory at 1/4x" true
    (M.predict path ~flows:(Stdlib.max 1 (nc / 4)) = M.Oscillatory);
  (* Margin crosses 1 exactly at the verdict flip. *)
  Alcotest.(check bool) "margin >= 1 when stable" true
    (M.gain_margin path ~flows:nc >= 1.);
  Alcotest.(check bool) "margin < 1 when oscillatory" true
    (M.gain_margin path ~flows:(nc - 1) < 1.)

let test_fast_sweep_agrees () =
  (* The CI-sized sweep: short runs at N far from the boundary on both
     sides must match the oracle's verdicts. *)
  let nc = M.critical_flows path in
  let flows = [ Stdlib.max 1 (nc / 8); Stdlib.max 1 (nc / 4); 2 * nc; 4 * nc ] in
  let s = M.sweep ~duration:(Sim.Time.of_sec 8.) ~flows path ~seed:1 in
  Alcotest.(check int) "all points out of band" (List.length flows)
    s.out_of_band;
  Alcotest.(check int)
    (Printf.sprintf "all %d out-of-band points agree" s.out_of_band)
    s.out_of_band s.agreed;
  List.iter
    (fun (p : M.sweep_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "N=%d verdict matches (amp %.3f)" p.sp_flows
           p.sp_amplitude)
        true
        (p.sp_predicted = p.sp_measured))
    s.points

(* The margin is not monotone in N on the 250-packet path: N = 135–181
   are predicted stable, 182–474 oscillate again (q* passes RED's max_th
   at 182 and the curve steepens), and critical_flows returns the count
   from which every larger N is stable. *)
let test_stable_window () =
  let nc = M.critical_flows path in
  Alcotest.(check bool) "stable at N = 150" true
    (M.predict path ~flows:150 = M.Stable);
  Alcotest.(check bool) "oscillatory at N = 182" true
    (M.predict path ~flows:182 = M.Oscillatory);
  for n = nc to 4 * nc do
    if M.predict path ~flows:n <> M.Stable then
      Alcotest.failf "N = %d is oscillatory above the boundary %d" n nc
  done

module E = Core.Experiments

(* The catalog's sweep (the paper path with its 100-packet IFQ): every
   verdict outside the boundary band matches the oracle. *)
let test_catalog_sweep_agrees () =
  let t = E.run ~duration:(Sim.Time.sec 2) "meanfield" in
  let in_band = Test_core.texts t "in_band"
  and predicted = Test_core.texts t "predicted"
  and measured = Test_core.texts t "measured" in
  List.iteri
    (fun i n ->
      let p = List.nth predicted i and m = List.nth measured i in
      if List.nth in_band i = "false" && p <> m then
        Alcotest.failf "out-of-band N = %d: predicted %s, measured %s" n p m)
    (Test_core.ints t "flows");
  let agreement = Test_core.column ~table:"agreement" t in
  match (agreement "agreed", agreement "out_of_band") with
  | [ E.Int agreed ], [ E.Int out_of_band ] ->
      Alcotest.(check int) "agreed = out_of_band" out_of_band agreed
  | _ -> Alcotest.fail "agreement is not one row of ints"

let suite =
  [
    Alcotest.test_case "equilibrium is self-consistent" `Quick
      test_equilibrium_consistent;
    Alcotest.test_case "stable at N* and 4N*, oscillatory at N*-1 and N*/4"
      `Quick test_critical_count_verdicts;
    Alcotest.test_case "fast sweep matches the oracle" `Slow
      test_fast_sweep_agrees;
    Alcotest.test_case "stable window below the boundary" `Quick
      test_stable_window;
    Alcotest.test_case "catalog sweep agrees outside the band" `Quick
      test_catalog_sweep_agrees;
  ]
