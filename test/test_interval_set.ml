module I = Tcp.Interval_set

let intervals_t = Alcotest.(list (pair int int))

let test_add_merge () =
  let s = I.create () in
  I.add s ~lo:10 ~hi:20;
  I.add s ~lo:30 ~hi:40;
  Alcotest.check intervals_t "disjoint" [ (10, 20); (30, 40) ] (I.intervals s);
  I.add s ~lo:15 ~hi:35;
  Alcotest.check intervals_t "merged" [ (10, 40) ] (I.intervals s);
  Alcotest.(check int) "total" 30 (I.total s)

let test_touching_coalesce () =
  let s = I.create () in
  I.add s ~lo:0 ~hi:10;
  I.add s ~lo:10 ~hi:20;
  Alcotest.check intervals_t "touching merge" [ (0, 20) ] (I.intervals s)

let test_empty_insert () =
  let s = I.create () in
  I.add s ~lo:5 ~hi:5;
  I.add s ~lo:7 ~hi:3;
  Alcotest.check intervals_t "still empty" [] (I.intervals s)

let test_mem_contains () =
  let s = I.create () in
  I.add s ~lo:10 ~hi:20;
  Alcotest.(check bool) "mem inside" true (I.mem s 15);
  Alcotest.(check bool) "mem lo edge" true (I.mem s 10);
  Alcotest.(check bool) "mem hi edge excluded" false (I.mem s 20);
  Alcotest.(check bool) "contains_range inside" true
    (I.contains_range s ~lo:12 ~hi:18);
  Alcotest.(check bool) "contains_range overflow" false
    (I.contains_range s ~lo:12 ~hi:25);
  Alcotest.(check bool) "empty range trivially contained" true
    (I.contains_range s ~lo:100 ~hi:100)

let test_remove_below () =
  let s = I.create () in
  I.add s ~lo:10 ~hi:20;
  I.add s ~lo:30 ~hi:40;
  I.remove_below s 15;
  Alcotest.check intervals_t "trimmed" [ (15, 20); (30, 40) ] (I.intervals s);
  I.remove_below s 25;
  Alcotest.check intervals_t "dropped" [ (30, 40) ] (I.intervals s)

let test_extend_contiguous () =
  let s = I.create () in
  I.add s ~lo:0 ~hi:10;
  I.add s ~lo:20 ~hi:30;
  Alcotest.(check int) "through first" 10 (I.extend_contiguous s 0);
  Alcotest.(check int) "from mid" 10 (I.extend_contiguous s 5);
  Alcotest.(check int) "at gap" 15 (I.extend_contiguous s 15)

let test_next_gap () =
  let s = I.create () in
  I.add s ~lo:10 ~hi:20;
  I.add s ~lo:30 ~hi:40;
  Alcotest.(check (option (pair int int))) "gap before first" (Some (0, 10))
    (I.next_gap s ~from:0);
  Alcotest.(check (option (pair int int))) "gap between" (Some (20, 30))
    (I.next_gap s ~from:15);
  Alcotest.(check (option (pair int int))) "no gap above" None
    (I.next_gap s ~from:35);
  Alcotest.(check (option (pair int int))) "empty set" None
    (I.next_gap (I.create ()) ~from:0)

let test_first_count () =
  let s = I.create () in
  Alcotest.(check (option (pair int int))) "first of empty" None (I.first s);
  I.add s ~lo:5 ~hi:6;
  I.add s ~lo:1 ~hi:2;
  Alcotest.(check (option (pair int int))) "first" (Some (1, 2)) (I.first s);
  Alcotest.(check int) "count" 2 (I.count s)

(* Model-based checking against a plain int set. *)
module Int_set = Set.Make (Int)

let qcheck_vs_model =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 0 40) (pair (int_bound 200) (int_bound 30)))
  in
  QCheck.Test.make ~name:"interval set matches model set" ~count:300 gen
    (fun ops ->
      let s = I.create () in
      let model = ref Int_set.empty in
      List.iter
        (fun (lo, len) ->
          I.add s ~lo ~hi:(lo + len);
          for x = lo to lo + len - 1 do
            model := Int_set.add x !model
          done)
        ops;
      let total_ok = I.total s = Int_set.cardinal !model in
      let mem_ok =
        List.for_all (fun x -> I.mem s x = Int_set.mem x !model)
          (List.init 240 Fun.id)
      in
      let sorted_disjoint =
        let rec check = function
          | (a1, b1) :: ((a2, _) :: _ as rest) ->
              a1 < b1 && b1 < a2 && check rest
          | [ (a, b) ] -> a < b
          | [] -> true
        in
        check (I.intervals s)
      in
      total_ok && mem_ok && sorted_disjoint)

let qcheck_remove_below_model =
  QCheck.Test.make ~name:"remove_below matches model" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 20) (pair (int_bound 100) (int_bound 20)))
        (int_bound 120))
    (fun (ops, bound) ->
      let s = I.create () in
      let model = ref Int_set.empty in
      List.iter
        (fun (lo, len) ->
          I.add s ~lo ~hi:(lo + len);
          for x = lo to lo + len - 1 do
            model := Int_set.add x !model
          done)
        ops;
      I.remove_below s bound;
      model := Int_set.filter (fun x -> x >= bound) !model;
      I.total s = Int_set.cardinal !model)

let suite =
  [
    Alcotest.test_case "add and merge" `Quick test_add_merge;
    Alcotest.test_case "touching coalesce" `Quick test_touching_coalesce;
    Alcotest.test_case "empty insert" `Quick test_empty_insert;
    Alcotest.test_case "mem / contains_range" `Quick test_mem_contains;
    Alcotest.test_case "remove_below" `Quick test_remove_below;
    Alcotest.test_case "extend_contiguous" `Quick test_extend_contiguous;
    Alcotest.test_case "next_gap" `Quick test_next_gap;
    Alcotest.test_case "first/count" `Quick test_first_count;
    QCheck_alcotest.to_alcotest qcheck_vs_model;
    QCheck_alcotest.to_alcotest qcheck_remove_below_model;
  ]
