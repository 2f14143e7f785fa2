(* compare.exe [--benchmark FILE] PARENT.json... -- CHANGE.json...

   Each argument is one run's results/BENCH_reference.json. Runs are
   paired in argument order: parent i with change i, which should be
   taken alternately and with the same seed. For every workload x metric
   it prints each side's median and quartiles, the change's wins over
   the pairs, and a verdict (Stats.compare_runs); bounds and directions
   come from BENCHMARK.json. It also flags any pair whose outcome
   digests differ and any error-rate change. Exit code 1 when a metric
   regressed or the error rate rose. *)

open Report.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  match of_string text with Ok j -> j | Error e -> die "%s: %s" path e

let get k j = match member k j with Some v -> v | None -> Null
let str k j = Option.value ~default:"" (string_value (get k j))
let fl k j = Option.value ~default:nan (number (get k j))
let lst k j = Option.value ~default:[] (list_value (get k j))

(* name -> (better, bound) for every metric BENCHMARK.json defines *)
let catalogue bench =
  List.concat_map
    (fun section ->
      List.filter_map
        (fun m ->
          Option.map
            (fun better -> (str "name" m, (better, number (get "bound" m))))
            (Stats.better_of_string (str "better" m)))
        (lst section bench))
    [ "end_to_end"; "per_layer" ]

(* One run: its seed and, per workload, the result object. *)
let read_run path =
  let j = load path in
  (fl "seed" j, List.map (fun w -> (str "name" w, w)) (lst "workloads" j))

let workload_of run w = List.assoc_opt w (snd run)

let median_of run w metric =
  Option.bind (workload_of run w) (fun r ->
      List.find_map
        (fun m -> if str "name" m = metric then Some (fl "median" m) else None)
        (lst "metrics" r))

let error_rate runs w =
  let a, f =
    List.fold_left
      (fun (a, f) run ->
        match workload_of run w with
        | Some r -> (a +. fl "attempted" r, f +. fl "failed" r)
        | None -> (a, f))
      (0., 0.) runs
  in
  if a = 0. then 0. else f /. a

let digests run w =
  Option.map (fun r -> List.map (fun d -> string_value d) (lst "digests" r)) (workload_of run w)

let () =
  let bench = ref "BENCHMARK.json" in
  let rec split parents = function
    | "--benchmark" :: f :: rest ->
        bench := f;
        split parents rest
    | "--" :: changes -> (List.rev parents, changes)
    | p :: rest -> split (p :: parents) rest
    | [] -> die "usage: compare.exe [--benchmark FILE] PARENT.json... -- CHANGE.json..."
  in
  let parents, changes = split [] (List.tl (Array.to_list Sys.argv)) in
  if parents = [] || changes = [] then die "need at least one run on each side";
  let catalogue = catalogue (load !bench) in
  let p = List.map read_run parents and c = List.map read_run changes in
  let workloads =
    List.sort_uniq compare (List.concat_map (fun run -> List.map fst (snd run)) p)
  in
  let bad = ref false in
  let q s =
    let q1, m, q3 = Stats.quartiles s in
    Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
  in
  List.iter
    (fun w ->
      let rows =
        List.filter_map
          (fun (metric, (better, bound)) ->
            let pv = List.filter_map (fun run -> median_of run w metric) p in
            let cv = List.filter_map (fun run -> median_of run w metric) c in
            if pv = [] || cv = [] then None
            else
              let r = Stats.compare_runs ~better ~bound ~parent:pv ~change:cv in
              if r.Stats.verdict = Stats.Regressed then bad := true;
              Some
                [
                  metric; q pv; q cv;
                  Printf.sprintf "%d/%d" r.Stats.wins r.Stats.pairs;
                  (match bound with Some b -> Printf.sprintf "%g" b | None -> "-");
                  Stats.verdict_name r.Stats.verdict;
                ])
          catalogue
      in
      Printf.printf "\n%s\n" w;
      print_string
        (Report.Table.render
           ~aligns:Report.Table.[ Left; Right; Right; Right; Right; Left ]
           ~headers:
             [ "metric"; "parent median [q1, q3]"; "change median [q1, q3]";
               "wins"; "bound"; "verdict" ]
           ~rows ());
      let ep = error_rate p w and ec = error_rate c w in
      if ec <> ep then Printf.printf "  FLAG error_rate %g -> %g\n" ep ec;
      if ec > ep then bad := true;
      List.iteri
        (fun i (pr, cr) ->
          match (digests pr w, digests cr w) with
          | Some dp, Some dc when fst pr = fst cr && dp <> dc ->
              Printf.printf
                "  FLAG pair %d (seed %g): outcome digests differ, so the \
                 simulated statistics changed\n"
                i (fst pr)
          | _ -> ())
        (List.filteri (fun i _ -> i < List.length c) p
        |> List.mapi (fun i pr -> (pr, List.nth c i))))
    workloads;
  if !bad then exit 1
