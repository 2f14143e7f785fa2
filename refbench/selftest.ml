(* Self-test of the benchmark's own logic, run by `dune runtest`:
   order statistics, compare verdicts on fixed inputs, and the output
   checker rejecting doctored outcomes. Silent on success. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "refbench selftest FAILED: %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.abs b)

let () =
  (* Expected values from Python: statistics.quantiles(xs, n=4). *)
  let q1, q2, q3 = Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  let q1, q2, q3 = Stats.quartiles [ 3.; 1.; 2. ] in
  check "quartiles 3 samples" (close q1 1. && close q2 2. && close q3 3.);
  let q1, q2, q3 = Stats.quartiles [ 10.; 20. ] in
  check "quartiles 2 samples" (close q1 7.5 && close q2 15. && close q3 22.5);
  let q1, _, q3 = Stats.quartiles [ 0.5; 0.9; 0.7; 0.8; 0.6 ] in
  check "quartiles 5 samples" (close q1 0.55 && close q3 0.85);
  check "median odd" (close (Stats.median [ 5.; 1.; 3. ]) 3.);
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "iqr" (close (Stats.iqr [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]) 5.5);
  check "spread" (close (Stats.spread [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]) 1.);
  (* A percentile needs at least ten samples beyond it. *)
  check "no percentile below 20 samples" (Stats.supported_percentile 19 = None);
  check "median at 20" (Stats.supported_percentile 20 = Some 0.5);
  check "p90 at 100" (Stats.supported_percentile 100 = Some 0.9);
  check "p90 at 999" (Stats.supported_percentile 999 = Some 0.9);
  check "p99 at 1000" (Stats.supported_percentile 1000 = Some 0.99);
  check "p99.9 at 10000" (Stats.supported_percentile 10000 = Some 0.999);
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check "tail of 1..100" (Stats.tail hundred = Some (0.9, 90.));
  check "no tail of 10" (Stats.tail (List.init 10 float_of_int) = None)

let () =
  let open Stats in
  let verdict ?(better = Higher) ?(bound = Some 0.1) parent change =
    (compare_runs ~better ~bound ~parent ~change).verdict
  in
  let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100. ] in
  let up k = List.map (fun x -> x +. k) base in
  check "clear gain" (verdict base (up 5.) = Improved);
  check "gain on a lower-is-better metric"
    (verdict ~better:Lower base (List.map (fun x -> x -. 5.) base) = Improved);
  check "same runs unchanged" (verdict base base = Unchanged);
  check "loss beyond the bound" (verdict base (List.map (fun x -> x *. 0.8) base) = Regressed);
  check "loss within the bound" (verdict base (List.map (fun x -> x *. 0.95) base) = Unchanged);
  (* 8 wins in 10 pairs is not 9/10: a 5% gain stays unchanged. *)
  let mixed = List.mapi (fun i x -> if i < 2 then x -. 1. else x +. 5.) base in
  check "8/10 wins is no gain" (verdict base mixed = Unchanged);
  (* Fewer than ten pairs never support a gain. *)
  check "5 pairs no gain"
    (verdict (List.filteri (fun i _ -> i < 5) base) (List.filteri (fun i _ -> i < 5) (up 5.))
    = Unchanged);
  (* A gap smaller than the parent's own IQR is not a gain. *)
  let wide = [ 80.; 120.; 90.; 110.; 85.; 115.; 95.; 105.; 100.; 100. ] in
  check "spread wider than the bound is unresolved"
    (verdict wide (List.map (fun x -> x +. 1.) (List.rev wide)) = Unresolved);
  check "unbounded metric regresses by the mirror rule"
    (verdict ~bound:None base (up (-5.)) = Regressed);
  check "unbounded metric unchanged" (verdict ~bound:None base base = Unchanged)

let () =
  (* A real outcome passes; doctored copies are rejected. *)
  let spec =
    { Core.Spec.default with Core.Spec.duration = Sim.Time.ms 300; record_series = false }
  in
  let o = Core.Spec.run spec in
  check "real outcome passes" (Check.outcome_errors spec o = []);
  let doctor f =
    { o with Core.Spec.results = List.map f o.Core.Spec.results }
  in
  let fast =
    doctor (fun r -> { r with Core.Spec.goodput_mbps = 2. *. Check.line_mbps spec })
  in
  check "goodput above line rate rejected" (Check.outcome_errors spec fast <> []);
  let over = doctor (fun r -> { r with Core.Spec.utilization = 1.5 }) in
  check "utilization above 1 rejected" (Check.outcome_errors spec over <> []);
  let unfair =
    { o with Core.Spec.path = { o.Core.Spec.path with Core.Spec.jain_index = 0. } }
  in
  check "Jain index 0 rejected" (Check.outcome_errors spec unfair <> []);
  check "doctored outcome changes the digest" (Check.digest fast <> Check.digest o);
  check "digests agree" (Check.digest_mismatches [ [ "a"; "b" ]; [ "a"; "b" ] ] = []);
  check "digest mismatch found"
    (Check.digest_mismatches [ [ "a"; "b" ]; [ "a"; "b" ]; [ "a"; "c" ] ] = [ 2 ]);
  let flow label stalls goodput =
    { (List.hd o.Core.Spec.results) with
      Core.Spec.label; send_stalls = stalls; goodput_mbps = goodput }
  in
  check "paper direction holds"
    (Check.paper_errors [ flow "standard" 3 60.; flow "restricted" 0 90. ] = []);
  check "restricted stalls rejected"
    (Check.paper_errors [ flow "standard" 3 60.; flow "restricted" 1 90. ] <> []);
  check "restricted slower rejected"
    (Check.paper_errors [ flow "standard" 3 90.; flow "restricted" 0 60. ] <> [])

(* Every generated spec is valid and runs at domains 1, which the
   layer run's pass structure assumes. *)
let () =
  List.iter
    (fun (w : Inputs.t) ->
      List.iter
        (fun text ->
          match Passes.parse text with
          | spec ->
              check (w.Inputs.name ^ " validates")
                (match Core.Spec.validate spec with () -> true | exception _ -> false);
              check (w.Inputs.name ^ " runs at domains 1") (spec.Core.Spec.domains = 1)
          | exception e -> check (w.Inputs.name ^ ": " ^ Printexc.to_string e) false)
        (w.Inputs.specs ~seed:1))
    Inputs.all

(* BENCHMARK.json (path in argv) defines what the code measures. *)
let () =
  let open Report.Json in
  let bench =
    match Sys.argv with
    | [| _; path |] -> of_string (In_channel.with_open_bin path In_channel.input_all)
    | _ -> Error "usage: selftest.exe BENCHMARK.json"
  in
  match bench with
  | Error e -> check ("BENCHMARK.json: " ^ e) false
  | Ok j ->
      let entries key f =
        match Option.bind (member key j) list_value with
        | Some l -> List.map f l
        | None -> []
      in
      let str k e = Option.bind (member k e) string_value in
      let name_unit e = (str "name" e, str "unit" e) in
      let ours l = List.map (fun m -> (Some m.Metrics.name, Some m.Metrics.unit)) l in
      check "end_to_end matches Metrics.end_to_end"
        (entries "end_to_end" name_unit = ours Metrics.end_to_end);
      check "per_layer matches Metrics.per_layer"
        (entries "per_layer" name_unit = ours Metrics.per_layer);
      check "workloads match Inputs.all"
        (entries "workloads" (str "name")
        = List.map (fun w -> Some w.Inputs.name) Inputs.all)

let () = if !failures > 0 then exit 1
