(** Aligned plain-text tables for the experiment harness output. *)

type align = Left | Right

val render :
  ?aligns:align list ->
  headers:string list ->
  rows:string list list ->
  unit ->
  string
(** Column widths auto-fit; numeric columns usually read best with
    [Right] (the default for every column is [Left]). Rows shorter than
    the header are padded with empty cells. *)

val cell_f : ?decimals:int -> float -> string
(** Fixed-point float cell (default 2 decimals; only the [report] test
    "cells" passes [decimals]). *)

val cell_i : int -> string
