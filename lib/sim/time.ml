type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let of_sec s = int_of_float (Float.round (s *. 1e9))
let to_sec t = float_of_int t /. 1e9
let of_ns_int n = n
let to_ns_int t = t
let to_ms t = float_of_int t /. 1e6

let add a b = a + b
let sub a b = a - b
let scale t k = int_of_float (Float.round (float_of_int t *. k))

let mul_int t n = t * n

let compare = Int.compare
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( > ) (a : t) (b : t) = Stdlib.( > ) a b
let ( >= ) (a : t) (b : t) = Stdlib.( >= ) a b
let min (a : t) (b : t) = Stdlib.min a b
let max (a : t) (b : t) = Stdlib.max a b

let is_negative t = Stdlib.( < ) t 0
let is_positive t = Stdlib.( > ) t 0
let infinity = max_int

let pp fmt t =
  let f = float_of_int t in
  if t = max_int then Format.fprintf fmt "inf"
  else if Stdlib.( < ) (Float.abs f) 1e3 then Format.fprintf fmt "%dns" t
  else if Stdlib.( < ) (Float.abs f) 1e6 then
    Format.fprintf fmt "%.3gus" (f /. 1e3)
  else if Stdlib.( < ) (Float.abs f) 1e9 then
    Format.fprintf fmt "%.4gms" (f /. 1e6)
  else Format.fprintf fmt "%.6gs" (f /. 1e9)

let to_string t = Format.asprintf "%a" pp t
