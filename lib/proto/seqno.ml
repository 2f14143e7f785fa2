type t = int32

let zero = 0l
let of_int n = Int32.of_int n
let add s n = Int32.add s (Int32.of_int n)

let diff a b = Int32.to_int (Int32.sub a b)
