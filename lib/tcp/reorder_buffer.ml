type t = { ranges : Interval_set.t; mutable ooo_count : int }

let create () = { ranges = Interval_set.create (); ooo_count = 0 }

let insert t ~expected ~lo ~hi =
  if lo > expected then t.ooo_count <- t.ooo_count + 1;
  Interval_set.add t.ranges ~lo ~hi

let deliverable_up_to t ~from = Interval_set.extend_contiguous t.ranges from
let consume_below t bound = Interval_set.remove_below t.ranges bound

let sack_blocks t ~above ~max_blocks =
  Interval_set.intervals t.ranges
  |> List.filter (fun (_, hi) -> hi > above)
  |> List.map (fun (lo, hi) -> (Int.max lo above, hi))
  |> fun l ->
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take max_blocks l

let buffered_bytes t = Interval_set.total t.ranges
let segments_out_of_order t = t.ooo_count
