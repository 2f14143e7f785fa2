type t = { sacked : Interval_set.t; mutable una : int }

let create () = { sacked = Interval_set.create (); una = 0 }

let record t ~blocks ~una =
  t.una <- Int.max t.una una;
  List.iter
    (fun (lo, hi) ->
      let lo = Int.max lo t.una in
      Interval_set.add t.sacked ~lo ~hi)
    blocks;
  Interval_set.remove_below t.sacked t.una

let advance_una t una =
  t.una <- Int.max t.una una;
  Interval_set.remove_below t.sacked t.una

let sacked_bytes t = Interval_set.total t.sacked

let is_sacked t ~lo ~hi = Interval_set.contains_range t.sacked ~lo ~hi

let next_hole t ~una ~mss =
  match Interval_set.next_gap t.sacked ~from:una with
  | None -> None
  | Some (lo, hi) -> Some (lo, Int.min hi (lo + mss))

let reset t = Interval_set.remove_below t.sacked max_int

let holes t =
  match Interval_set.intervals t.sacked with
  | [] -> 0
  | _ :: _ as ranges ->
      (* A hole precedes each interval unless flush against una/previous. *)
      let _, n =
        List.fold_left
          (fun (cursor, n) (lo, hi) ->
            (hi, if lo > cursor then n + 1 else n))
          (t.una, 0) ranges
      in
      n
