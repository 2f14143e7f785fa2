(* Order statistics and the compare verdict.

   [quartiles] reproduces Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method) exactly, so the spreads this
   benchmark prints are the spreads anyone recomputing them from the
   recorded samples gets. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* statistics.quantiles(data, n=4, method='exclusive'). One sample has
   no spread: all three cut points are that sample. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let n = 4 and m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (cut 1, cut 2, cut 3)

let median xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n land 1 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* IQR as a share of the median: the run-to-run spread a bound is
   compared against. *)
let spread xs =
  let m = median xs in
  if m = 0. then if iqr xs = 0. then 0. else infinity else iqr xs /. Float.abs m

(* The highest percentile of the ladder that still has at least ten
   samples beyond it; below 20 samples not even the median qualifies. *)
let tail_ladder = [ 0.999; 0.99; 0.9; 0.5 ]

let supported_percentile n =
  List.find_opt
    (fun p -> Float.of_int n *. (1. -. p) >= 10. -. 1e-9)
    tail_ladder

(* Nearest-rank percentile. *)
let percentile p xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  d.(max 0 (min (n - 1) (rank - 1)))

let tail xs =
  Option.map (fun p -> (p, percentile p xs)) (supported_percentile (List.length xs))

(* --- comparing two commits (one value per run on each side) ---------- *)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [gain better ~from ~to_] > 0 when [to_] is the better reading. *)
let gain better ~from ~to_ =
  match better with Lower -> from -. to_ | Higher -> to_ -. from

type comparison = {
  wins : int;  (** change better than parent, pair by pair *)
  pairs : int;
  verdict : verdict;
}

(* Runs are paired in the order given (parent i with change i), which
   is the alternating order they were taken in. A gain needs at least
   ten pairs, nine tenths of them won (ties count for neither side), and
   a median gap wider than the parent's own IQR. A loss beyond [bound]
   (a share of the parent median) is a regression. Spread wider than
   the bound leaves the metric unresolved, unless every change run beats
   every parent run. Metrics without a bound regress by the mirror of
   the gain rule. *)
let compare_runs ~better ~bound ~parent ~change =
  let rec pair w l n ps cs =
    match (ps, cs) with
    | p :: ps, c :: cs ->
        let g = gain better ~from:p ~to_:c in
        pair (if g > 0. then w + 1 else w) (if g < 0. then l + 1 else l) (n + 1)
          ps cs
    | _ -> (w, l, n)
  in
  let wins, losses, pairs = pair 0 0 0 parent change in
  let pm = median parent and cm = median change in
  let p_iqr = iqr parent in
  let g = gain better ~from:pm ~to_:cm in
  let decisive k = pairs >= 10 && k * 10 >= 9 * pairs in
  let all_better =
    List.for_all
      (fun c -> List.for_all (fun p -> gain better ~from:p ~to_:c > 0.) parent)
      change
  in
  let verdict =
    if decisive wins && g > p_iqr then Improved
    else
      match bound with
      | Some b when -.g > b *. Float.abs pm -> Regressed
      | Some b when Float.max (spread parent) (spread change) > b && not all_better
        ->
          Unresolved
      | Some _ -> Unchanged
      | None -> if decisive losses && -.g > p_iqr then Regressed else Unchanged
  in
  { wins; pairs; verdict }
