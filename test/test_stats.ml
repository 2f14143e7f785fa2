let test_summary_basic () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Sim.Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5. (Sim.Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 2. (Sim.Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9. (Sim.Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "total" 40. (Sim.Stats.Summary.total s);
  (* Population variance of this data is 4; sample variance 32/7. *)
  Alcotest.(check (float 1e-9)) "sample variance" (32. /. 7.)
    (Sim.Stats.Summary.variance s)

let test_summary_empty () =
  let s = Sim.Stats.Summary.create () in
  Alcotest.(check (float 0.)) "mean of empty" 0. (Sim.Stats.Summary.mean s);
  Alcotest.(check (float 0.)) "variance of empty" 0.
    (Sim.Stats.Summary.variance s)

let test_summary_merge () =
  let a = Sim.Stats.Summary.create () and b = Sim.Stats.Summary.create () in
  let whole = Sim.Stats.Summary.create () in
  let data1 = [ 1.; 2.; 3. ] and data2 = [ 10.; 20.; 30.; 40. ] in
  List.iter (Sim.Stats.Summary.add a) data1;
  List.iter (Sim.Stats.Summary.add b) data2;
  List.iter (Sim.Stats.Summary.add whole) (data1 @ data2);
  let merged = Sim.Stats.Summary.merge a b in
  Alcotest.(check int) "count" (Sim.Stats.Summary.count whole)
    (Sim.Stats.Summary.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Sim.Stats.Summary.mean whole)
    (Sim.Stats.Summary.mean merged);
  Alcotest.(check (float 1e-6)) "variance" (Sim.Stats.Summary.variance whole)
    (Sim.Stats.Summary.variance merged)

let qcheck_welford_vs_naive =
  QCheck.Test.make ~name:"Welford matches naive two-pass" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 100) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Sim.Stats.Summary.create () in
      List.iter (Sim.Stats.Summary.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
        /. (n -. 1.)
      in
      Float.abs (Sim.Stats.Summary.mean s -. mean) < 1e-6 *. (1. +. mean)
      && Float.abs (Sim.Stats.Summary.variance s -. var) < 1e-6 *. (1. +. var))

let test_histogram () =
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  for i = 0 to 99 do
    Sim.Stats.Histogram.add h (float_of_int i /. 10.)
  done;
  Sim.Stats.Histogram.add h (-1.);
  Sim.Stats.Histogram.add h 11.;
  let median = Sim.Stats.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "median near 5" true (Float.abs (median -. 5.) < 0.6)

let test_summary_pp_empty () =
  let s = Sim.Stats.Summary.create () in
  let out = Format.asprintf "%a" Sim.Stats.Summary.pp s in
  (* An empty summary must not leak inf/-inf sentinels into reports. *)
  Alcotest.(check string) "empty pp" "n=0 mean=- sd=- min=- max=-" out;
  Alcotest.(check bool) "no inf in output" false
    (String.length out >= 3
    &&
    let has sub =
      let n = String.length out and m = String.length sub in
      let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
      go 0
    in
    has "inf")

let qcheck_summary_merge_vs_single_stream =
  (* merge a b must behave as if every sample had been added to one
     stream: same count/mean/min/max/total, variance within fp noise. *)
  QCheck.Test.make ~name:"Summary.merge equals single-stream add" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 60) (float_range (-1000.) 1000.))
        (list_of_size (Gen.int_range 0 60) (float_range (-1000.) 1000.)))
    (fun (xs, ys) ->
      let a = Sim.Stats.Summary.create ()
      and b = Sim.Stats.Summary.create ()
      and whole = Sim.Stats.Summary.create () in
      List.iter (Sim.Stats.Summary.add a) xs;
      List.iter (Sim.Stats.Summary.add b) ys;
      List.iter (Sim.Stats.Summary.add whole) (xs @ ys);
      let m = Sim.Stats.Summary.merge a b in
      let close u v = Float.abs (u -. v) <= 1e-6 *. (1. +. Float.abs v) in
      Sim.Stats.Summary.count m = Sim.Stats.Summary.count whole
      && close (Sim.Stats.Summary.mean m) (Sim.Stats.Summary.mean whole)
      && close (Sim.Stats.Summary.total m) (Sim.Stats.Summary.total whole)
      && close (Sim.Stats.Summary.variance m)
           (Sim.Stats.Summary.variance whole)
      && (Sim.Stats.Summary.count m = 0
         || close (Sim.Stats.Summary.min m) (Sim.Stats.Summary.min whole)
            && close (Sim.Stats.Summary.max m) (Sim.Stats.Summary.max whole)))

let test_quantile_edges () =
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  (* All mass in bin 7 ([7,8)). *)
  for _ = 1 to 50 do
    Sim.Stats.Histogram.add h 7.5
  done;
  Alcotest.(check (float 1e-9)) "q=0 lands on first populated bin edge" 7.
    (Sim.Stats.Histogram.quantile h 0.);
  Alcotest.(check (float 1e-9)) "q=1 reaches bin top" 8.
    (Sim.Stats.Histogram.quantile h 1.);
  (* Underflow mass pulls q=0 to the range floor. *)
  Sim.Stats.Histogram.add h (-3.);
  Alcotest.(check (float 1e-9)) "q=0 with underflow clamps to lo" 0.
    (Sim.Stats.Histogram.quantile h 0.)

let test_quantile_all_overflow () =
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:4 in
  for _ = 1 to 5 do
    Sim.Stats.Histogram.add h 99.
  done;
  (* Every sample overflowed: all quantiles clamp to the range ceiling
     instead of reading garbage off the empty bins. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.2f all-overflow" q)
        10.
        (Sim.Stats.Histogram.quantile h q))
    [ 0.; 0.25; 0.5; 1. ]

let test_quantile_all_underflow () =
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:4 in
  for _ = 1 to 5 do
    Sim.Stats.Histogram.add h (-1.)
  done;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.2f all-underflow" q)
        0.
        (Sim.Stats.Histogram.quantile h q))
    [ 0.; 0.5; 1. ]

(* Oracle: the sorted sample of rank ceil(q*n) — the same crossing
   point the histogram's cumulative walk uses — lives in the bin the
   interpolated answer comes from, so they can differ by at most one
   bin width. (No under/overflow here: the generator stays in range.) *)
let qcheck_quantile_vs_sorted_oracle =
  let lo = 0. and hi = 100. and bins = 20 in
  let bin_width = (hi -. lo) /. float_of_int bins in
  QCheck.Test.make ~name:"Histogram.quantile within one bin of sorted oracle"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 200) (float_range 0. 99.99))
        (float_range 0. 1.))
    (fun (xs, q) ->
      let h = Sim.Stats.Histogram.create ~lo ~hi ~bins in
      List.iter (Sim.Stats.Histogram.add h) xs;
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      let rank =
        Stdlib.max 1
          (Stdlib.min n (int_of_float (ceil (q *. float_of_int n))))
      in
      let oracle = List.nth sorted (rank - 1) in
      let got = Sim.Stats.Histogram.quantile h q in
      Float.abs (got -. oracle) <= bin_width +. 1e-9)

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"Histogram.quantile is monotone in q" ~count:300
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 100) (float_range (-10.) 110.))
        (float_range 0. 1.) (float_range 0. 1.))
    (fun (xs, q1, q2) ->
      let h = Sim.Stats.Histogram.create ~lo:0. ~hi:100. ~bins:16 in
      List.iter (Sim.Stats.Histogram.add h) xs;
      let lo_q = Stdlib.min q1 q2 and hi_q = Stdlib.max q1 q2 in
      Sim.Stats.Histogram.quantile h lo_q
      <= Sim.Stats.Histogram.quantile h hi_q +. 1e-9)

let test_histogram_validation () =
  Alcotest.check_raises "hi <= lo"
    (Invalid_argument "Histogram.create: hi must exceed lo") (fun () ->
      ignore (Sim.Stats.Histogram.create ~lo:1. ~hi:1. ~bins:4));
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  Alcotest.check_raises "empty quantile"
    (Invalid_argument "Histogram.quantile: empty histogram") (fun () ->
      ignore (Sim.Stats.Histogram.quantile h 0.5))

let test_time_weighted () =
  let g = Sim.Stats.Time_weighted.create ~now:Sim.Time.zero ~init:0. in
  Sim.Stats.Time_weighted.set g ~now:(Sim.Time.sec 1) 10.;
  Sim.Stats.Time_weighted.set g ~now:(Sim.Time.sec 3) 0.;
  (* 1s at 0, 2s at 10, 1s at 0 → mean over 4s = 20/4 = 5. *)
  Alcotest.(check (float 1e-9)) "time-weighted mean" 5.
    (Sim.Stats.Time_weighted.mean g ~now:(Sim.Time.sec 4));
  Alcotest.(check (float 1e-9)) "peak" 10. (Sim.Stats.Time_weighted.max g)

let test_time_weighted_zero_elapsed () =
  let g = Sim.Stats.Time_weighted.create ~now:Sim.Time.zero ~init:7. in
  Alcotest.(check (float 1e-9)) "mean with no elapsed time" 7.
    (Sim.Stats.Time_weighted.mean g ~now:Sim.Time.zero)

let test_series () =
  let s = Sim.Stats.Series.create ~name:"x" () in
  for i = 1 to 40 do
    Sim.Stats.Series.add s (Sim.Time.ms (i * 10)) (float_of_int i)
  done;
  Alcotest.(check int) "length" 40
    (Array.length (Sim.Stats.Series.times s));
  Alcotest.(check int) "csv rows" 40 (List.length (Sim.Stats.Series.to_csv_rows s))

let suite =
  [
    Alcotest.test_case "summary basics" `Quick test_summary_basic;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "summary merge" `Quick test_summary_merge;
    Alcotest.test_case "summary pp empty" `Quick test_summary_pp_empty;
    QCheck_alcotest.to_alcotest qcheck_welford_vs_naive;
    QCheck_alcotest.to_alcotest qcheck_summary_merge_vs_single_stream;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
    Alcotest.test_case "quantile edges" `Quick test_quantile_edges;
    Alcotest.test_case "quantile all-overflow" `Quick
      test_quantile_all_overflow;
    Alcotest.test_case "quantile all-underflow" `Quick
      test_quantile_all_underflow;
    QCheck_alcotest.to_alcotest qcheck_quantile_vs_sorted_oracle;
    QCheck_alcotest.to_alcotest qcheck_quantile_monotone;
    Alcotest.test_case "time-weighted gauge" `Quick test_time_weighted;
    Alcotest.test_case "time-weighted zero elapsed" `Quick
      test_time_weighted_zero_elapsed;
    Alcotest.test_case "series" `Quick test_series;
  ]
