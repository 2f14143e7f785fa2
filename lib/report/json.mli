(** Minimal JSON tree, writer and parser.

    Just enough for scenario specs, the serve journal and the benchmark
    results ([BENCH_core.json], [BENCH_reference.json]): objects,
    arrays, strings, floats, bools and null, UTF-8 passed through
    verbatim. No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Render with two-space indentation and a trailing newline.
    Non-finite [Number]s (nan, ±infinity) render as [null] — JSON has
    no literals for them. *)

val to_string_compact : t -> string
(** Render on one line with no spaces and no trailing newline — the
    framing for JSONL journals, where one record is one line. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error carries an offset. A
    [\u] escape decodes to UTF-8, a UTF-16 surrogate pair of them to
    its one code point; a surrogate escape outside a pair is refused. *)

val of_file : string -> (t, string) result
(** Read and parse a whole file. Every error, an unreadable file's
    included, begins with the path. *)

val member : string -> t -> t option
(** [member key json] looks up [key] when [json] is an object. *)

val number : t -> float option
(** Extract a [Number]. *)

val string_value : t -> string option
(** Extract a [String]. *)

val list_value : t -> t list option
(** Extract a [List]. *)
