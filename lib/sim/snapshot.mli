(** Versioned, checksummed binary snapshot container.

    A snapshot is a flat set of named, typed sections — int/float
    scalars, int/float arrays, raw byte strings — under a magic/version
    header and an MD5 digest trailer. Producers write sections by name;
    consumers read them back by name, so independent subsystems
    (scheduler, timer wheel, flow table, workload engines) can share one
    image without coordinating a layout.

    Integers travel as little-endian int64, floats as their IEEE bit
    patterns: every round trip is bit-exact, which is what makes a
    resumed run byte-identical to an unbroken one.

    The writer records each section as it is put; {!save} and
    {!to_string} encode them once, digest included, into one buffer of
    the image's exact size. That is when the arrays put are read, so an
    array must not change between its [put] and the encoding.

    Durability: {!save} writes the complete image to [path ^ ".tmp"],
    rotates the previous image to [path ^ ".prev"], then renames into
    place — [path] is never a torn write. {!load} verifies framing and
    digest and falls back to [".prev"] on any corruption, so a crash at
    any instant leaves at least one verified-complete snapshot. *)

exception Corrupt of string
(** Raised by the reading functions on truncation, checksum mismatch,
    version skew, or a missing/mistyped section. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer

val put_int : writer -> string -> int -> unit
val put_i64 : writer -> string -> int64 -> unit
val put_float : writer -> string -> float -> unit
val put_int_array : writer -> string -> int array -> unit
val put_float_array : writer -> string -> float array -> unit
val put_bytes : writer -> string -> string -> unit
(** Arrays and strings are recorded by reference and read when the
    image is encoded. Writing the same name twice keeps both sections,
    and the reader the last. Names are 1..255 bytes. *)

val save : writer -> path:string -> unit
(** Encode the image, then write-rename atomically with [".prev"]
    rotation (see module doc). *)

val to_string : writer -> string
(** The complete image (header, sections, digest) as a string, the same
    bytes {!save} writes — for tests and in-memory round trips. *)

(** {1 Reading} *)

type reader

val load : path:string -> reader
(** Load and verify [path]; on corruption fall back to [path ^ ".prev"]
    if present, else raise {!Corrupt}. *)

val of_string : string -> reader
(** Parse an image produced by {!to_string}. Raises {!Corrupt}. *)

val get_int : reader -> string -> int
val get_i64 : reader -> string -> int64
val get_float : reader -> string -> float
val get_int_array : reader -> string -> int array
val get_float_array : reader -> string -> float array
val get_bytes : reader -> string -> string
(** All raise {!Corrupt} if the section is absent or of another kind. *)
