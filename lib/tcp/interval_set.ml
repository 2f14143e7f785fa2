(* Plain sorted list of disjoint [lo, hi) pairs. Interval counts in TCP
   reorder/SACK state stay small (bounded by outstanding holes), so
   linear rebuilds are simpler and fast enough; the operations are
   O(intervals). *)

type t = { mutable ranges : (int * int) list }

let create () = { ranges = [] }

let add t ~lo ~hi =
  if lo < hi then begin
    let rec insert = function
      | [] -> [ (lo, hi) ]
      | (a, b) :: rest when b < lo -> (a, b) :: insert rest
      | ranges ->
          (* Merge [lo,hi) with every range it overlaps or touches. *)
          let rec absorb lo hi = function
            | (a, b) :: rest when a <= hi ->
                absorb (Int.min lo a) (Int.max hi b) rest
            | rest -> (lo, hi) :: rest
          in
          absorb lo hi ranges
    in
    t.ranges <- insert t.ranges
  end

let remove_below t bound =
  let rec trim = function
    | (_, b) :: rest when b <= bound -> trim rest
    | (a, b) :: rest when a < bound -> (bound, b) :: rest
    | ranges -> ranges
  in
  t.ranges <- trim t.ranges

let mem t x = List.exists (fun (a, b) -> a <= x && x < b) t.ranges

let contains_range t ~lo ~hi =
  lo >= hi || List.exists (fun (a, b) -> a <= lo && hi <= b) t.ranges

let total t = List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 t.ranges
let count t = List.length t.ranges
let intervals t = t.ranges
let first t = match t.ranges with [] -> None | r :: _ -> Some r

let extend_contiguous t x =
  match List.find_opt (fun (a, b) -> a <= x && x < b) t.ranges with
  | Some (_, b) -> b
  | None -> x

let next_gap t ~from =
  (* Skip intervals entirely below [from]; if [from] lands inside one,
     the gap starts at its end. *)
  let rec search from = function
    | [] -> None
    | (a, b) :: rest ->
        if b <= from then search from rest
        else if a <= from then search b rest
        else Some (from, a)
  in
  search from t.ranges
