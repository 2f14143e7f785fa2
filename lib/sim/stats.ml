module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.; m2 = 0.; mn = infinity; mx = neg_infinity; total = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x;
    t.total <- t.total +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = Float.sqrt (variance t)
  let min t = t.mn
  let max t = t.mx
  let total t = t.total

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean =
        a.mean +. (delta *. float_of_int b.n /. float_of_int n)
      in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n
            /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        mn = Stdlib.min a.mn b.mn;
        mx = Stdlib.max a.mx b.mx;
        total = a.total +. b.total;
      }
    end

  let pp fmt t =
    (* mn/mx are infinity/neg_infinity sentinels before the first add;
       printing them as min/max of an empty summary is misleading. *)
    if t.n = 0 then Format.fprintf fmt "n=0 mean=- sd=- min=- max=-"
    else
      Format.fprintf fmt "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.n
        (mean t) (stddev t) t.mn t.mx
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    counts : int array;
    mutable under : int;
    mutable over : int;
    mutable n : int;
  }

  let create ~lo ~hi ~bins =
    if not (hi > lo) then invalid_arg "Histogram.create: hi must exceed lo";
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    { lo; hi; counts = Array.make bins 0; under = 0; over = 0; n = 0 }

  let width t = (t.hi -. t.lo) /. float_of_int (Array.length t.counts)

  let add t x =
    t.n <- t.n + 1;
    if x < t.lo then t.under <- t.under + 1
    else if x >= t.hi then t.over <- t.over + 1
    else begin
      let i = int_of_float ((x -. t.lo) /. width t) in
      let i = Stdlib.min i (Array.length t.counts - 1) in
      t.counts.(i) <- t.counts.(i) + 1
    end

  let quantile t q =
    if t.n = 0 then invalid_arg "Histogram.quantile: empty histogram";
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int t.n in
    (* [target <= under] must not fire when under = 0: q=0 gives
       target = 0 <= 0 and used to return t.lo even when the lowest
       populated bin sat far above it. *)
    if t.under > 0 && target <= float_of_int t.under then t.lo
    else begin
      let seen = ref (float_of_int t.under) in
      let result = ref nan in
      (try
         for i = 0 to Array.length t.counts - 1 do
           let c = float_of_int t.counts.(i) in
           if c > 0. then begin
             if !seen +. c >= target then begin
               (* q=0 lands on the first populated bin with frac = 0,
                  i.e. the low edge of the lowest populated bin. *)
               let frac = Float.max 0. ((target -. !seen) /. c) in
               result := t.lo +. ((float_of_int i +. frac) *. width t);
               raise Exit
             end;
             seen := !seen +. c
           end
         done
       with Exit -> ());
      (* Remaining mass (possibly all of it) lives in the overflow
         bucket, whose samples are >= hi: clamp to hi explicitly. *)
      if Float.is_nan !result then t.hi else !result
    end
end

module Time_weighted = struct
  type t = {
    origin : Time.t;
    mutable last_change : Time.t;
    mutable current : float;
    mutable integral : float; (* value × seconds accumulated so far *)
    mutable peak : float;
  }

  let create ~now ~init =
    { origin = now; last_change = now; current = init; integral = 0.;
      peak = init }

  let settle t ~now =
    assert (Time.(now >= t.last_change));
    let dt = Time.to_sec (Time.sub now t.last_change) in
    t.integral <- t.integral +. (t.current *. dt);
    t.last_change <- now

  let set t ~now v =
    settle t ~now;
    t.current <- v;
    if v > t.peak then t.peak <- v

  let mean t ~now =
    let elapsed = Time.to_sec (Time.sub now t.origin) in
    if elapsed <= 0. then t.current
    else begin
      let dt = Time.to_sec (Time.sub now t.last_change) in
      (t.integral +. (t.current *. dt)) /. elapsed
    end

  let max t = t.peak
end

module Series = struct
  type t = {
    name : string;
    mutable times : Time.t array;
    mutable values : float array;
    mutable n : int;
  }

  let create ?(name = "") () =
    { name; times = Array.make 16 Time.zero; values = Array.make 16 0.; n = 0 }

  let name t = t.name

  let grow t =
    let cap = 2 * Array.length t.times in
    let times = Array.make cap Time.zero and values = Array.make cap 0. in
    Array.blit t.times 0 times 0 t.n;
    Array.blit t.values 0 values 0 t.n;
    t.times <- times;
    t.values <- values

  let add t time v =
    if t.n = Array.length t.times then grow t;
    t.times.(t.n) <- time;
    t.values.(t.n) <- v;
    t.n <- t.n + 1

  let times t = Array.sub t.times 0 t.n
  let values t = Array.sub t.values 0 t.n

  let to_csv_rows t =
    List.init t.n (fun i -> (Time.to_sec t.times.(i), t.values.(i)))
end
