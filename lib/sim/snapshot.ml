(* Versioned, checksummed binary snapshot container.

   A snapshot is a flat sequence of named, typed sections — int64 and
   float scalars, int64 and float arrays, raw byte strings — framed by a
   magic/version header and an MD5 trailer over everything before it.
   Readers address sections by name, so producers can add sections
   without breaking older state, and a version bump is only needed when
   the meaning of an existing section changes.

   The writer records its sections, and [save] and [to_string] encode
   them once, digest included, into one buffer of the image's exact
   size, reading every array then.

   Durability protocol: [save] writes the whole image to [path ^ ".tmp"],
   rotates any existing [path] to [path ^ ".prev"], then renames the tmp
   file into place — so [path] is always either the old complete image or
   the new complete image, never a torn write. [load] verifies the magic,
   version, framing and digest, and on any corruption (truncation, bit
   rot, a crash between the two renames) falls back to the [".prev"]
   image, which was a verified-complete snapshot when it was live.

   All integers are little-endian int64 on the wire; floats travel as
   their IEEE bit patterns, so a round trip is exact. *)

let magic = "RSSSNAP\001"
let version = 1

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Section kind tags on the wire. *)
let k_i64 = 0
let k_f64 = 1
let k_i64_array = 2
let k_f64_array = 3
let k_bytes = 4

(* A section as put: scalars by value, arrays and strings by reference.
   [encode] reads them, so an array put must not change before the
   image is encoded. *)
type payload =
  | I64 of int64
  | F64 of float
  | Ints of int array
  | Floats of float array
  | Str of string

type writer = { mutable rev_sections : (string * payload) list }

let writer () = { rev_sections = [] }

let put w name payload =
  let n = String.length name in
  if n = 0 || n > 255 then
    invalid_arg "Snapshot: section names must be 1..255 bytes";
  w.rev_sections <- (name, payload) :: w.rev_sections

let put_i64 w name v = put w name (I64 v)
let put_int w name v = put_i64 w name (Int64.of_int v)
let put_float w name v = put w name (F64 v)
let put_int_array w name a = put w name (Ints a)
let put_float_array w name a = put w name (Floats a)
let put_bytes w name s = put w name (Str s)

let header_len = String.length magic + 8
let digest_len = 16

let kind = function
  | I64 _ -> k_i64
  | F64 _ -> k_f64
  | Ints _ -> k_i64_array
  | Floats _ -> k_f64_array
  | Str _ -> k_bytes

(* Wire bytes of a section: name length, name, kind, then the scalar or
   the length and the elements. *)
let section_len (name, p) =
  let payload =
    match p with
    | I64 _ | F64 _ -> 8
    | Ints a -> 8 + (8 * Array.length a)
    | Floats a -> 8 + (8 * Array.length a)
    | Str s -> 8 + String.length s
  in
  2 + String.length name + payload

(* Write section [s] at [pos]; returns the position after it. *)
let write_section b pos ((name, p) as s) =
  let n = String.length name in
  Bytes.set_uint8 b pos n;
  Bytes.blit_string name 0 b (pos + 1) n;
  Bytes.set_uint8 b (pos + n + 1) (kind p);
  let at = pos + n + 2 in
  (match p with
  | I64 v -> Bytes.set_int64_le b at v
  | F64 v -> Bytes.set_int64_le b at (Int64.bits_of_float v)
  | Ints a ->
      Bytes.set_int64_le b at (Int64.of_int (Array.length a));
      for i = 0 to Array.length a - 1 do
        Bytes.set_int64_le b (at + 8 + (8 * i))
          (Int64.of_int (Array.unsafe_get a i))
      done
  | Floats a ->
      Bytes.set_int64_le b at (Int64.of_int (Array.length a));
      for i = 0 to Array.length a - 1 do
        Bytes.set_int64_le b (at + 8 + (8 * i))
          (Int64.bits_of_float (Array.unsafe_get a i))
      done
  | Str str ->
      Bytes.set_int64_le b at (Int64.of_int (String.length str));
      Bytes.blit_string str 0 b (at + 8) (String.length str));
  pos + section_len s

(* Header, sections in put order and the digest of both, in one buffer
   of the image's exact size. *)
let encode w =
  let sections = List.rev w.rev_sections in
  let body_len =
    List.fold_left (fun n s -> n + section_len s) header_len sections
  in
  let b = Bytes.create (body_len + digest_len) in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int64_le b (String.length magic) (Int64.of_int version);
  ignore (List.fold_left (write_section b) header_len sections);
  Bytes.blit_string (Digest.subbytes b 0 body_len) 0 b body_len digest_len;
  b

let to_string w = Bytes.unsafe_to_string (encode w)

let save w ~path =
  let image = encode w in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try output_bytes oc image
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  if Sys.file_exists path then Sys.rename path (path ^ ".prev");
  Sys.rename tmp path

(* --- reading ------------------------------------------------------------ *)

type section = { kind : int; off : int; len : int (* elements or bytes *) }

type reader = { data : bytes; sections : (string, section) Hashtbl.t }

let parse data =
  let total = Bytes.length data in
  if total < header_len + digest_len then
    corrupt "truncated snapshot (%d bytes)" total;
  if Bytes.sub_string data 0 (String.length magic) <> magic then
    corrupt "bad magic";
  let body_len = total - digest_len in
  let stored = Bytes.sub_string data body_len digest_len in
  if Digest.subbytes data 0 body_len <> stored then
    corrupt "checksum mismatch";
  let v = Int64.to_int (Bytes.get_int64_le data (String.length magic)) in
  if v <> version then corrupt "unsupported snapshot version %d" v;
  let sections = Hashtbl.create 32 in
  let pos = ref header_len in
  let need n what =
    if !pos + n > body_len then corrupt "truncated %s at offset %d" what !pos
  in
  while !pos < body_len do
    need 1 "section name length";
    let nlen = Bytes.get_uint8 data !pos in
    incr pos;
    need nlen "section name";
    let name = Bytes.sub_string data !pos nlen in
    pos := !pos + nlen;
    need 1 "section kind";
    let kind = Bytes.get_uint8 data !pos in
    incr pos;
    let sec =
      if kind = k_i64 || kind = k_f64 then begin
        need 8 "scalar payload";
        let s = { kind; off = !pos; len = 1 } in
        pos := !pos + 8;
        s
      end
      else if kind = k_i64_array || kind = k_f64_array || kind = k_bytes
      then begin
        need 8 "section length";
        let len = Int64.to_int (Bytes.get_int64_le data !pos) in
        pos := !pos + 8;
        if len < 0 then corrupt "negative section length in %S" name;
        (* [len] comes from the file: bound it by the bytes left before
           scaling it, or [8 * len] can wrap past the check. *)
        let width = if kind = k_bytes then 1 else 8 in
        if len > (body_len - !pos) / width then
          corrupt "truncated section payload at offset %d" !pos;
        let payload = width * len in
        let s = { kind; off = !pos; len } in
        pos := !pos + payload;
        s
      end
      else corrupt "unknown section kind %d in %S" kind name
    in
    Hashtbl.replace sections name sec
  done;
  { data; sections }

let load_file path =
  let ic =
    try open_in_bin path with Sys_error m -> corrupt "cannot open: %s" m
  in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  in
  parse (Bytes.unsafe_of_string data)

let load ~path =
  try load_file path
  with Corrupt _ as primary_failure ->
    let prev = path ^ ".prev" in
    if Sys.file_exists prev then load_file prev else raise primary_failure

let of_string s = parse (Bytes.of_string s)

let find r name ~kind ~what =
  match Hashtbl.find_opt r.sections name with
  | None -> corrupt "missing section %S" name
  | Some s when s.kind <> kind -> corrupt "section %S is not %s" name what
  | Some s -> s

let get_i64 r name =
  let s = find r name ~kind:k_i64 ~what:"an int scalar" in
  Bytes.get_int64_le r.data s.off

let get_int r name = Int64.to_int (get_i64 r name)

let get_float r name =
  let s = find r name ~kind:k_f64 ~what:"a float scalar" in
  Int64.float_of_bits (Bytes.get_int64_le r.data s.off)

let get_int_array r name =
  let s = find r name ~kind:k_i64_array ~what:"an int array" in
  Array.init s.len (fun i ->
      Int64.to_int (Bytes.get_int64_le r.data (s.off + (8 * i))))

let get_float_array r name =
  let s = find r name ~kind:k_f64_array ~what:"a float array" in
  Array.init s.len (fun i ->
      Int64.float_of_bits (Bytes.get_int64_le r.data (s.off + (8 * i))))

let get_bytes r name =
  let s = find r name ~kind:k_bytes ~what:"a byte string" in
  Bytes.sub_string r.data s.off s.len
