type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* JSON has no nan/inf literals — "%.17g" would emit invalid documents
   for non-finite values, so those encode as null. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string t =
  let buf = Buffer.create 1024 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number f -> Buffer.add_string buf (number_to_string f)
    | String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (depth + 1);
            emit (depth + 1) item)
          items;
        Buffer.add_char buf '\n';
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (depth + 1);
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\": ";
            emit (depth + 1) v)
          fields;
        Buffer.add_char buf '\n';
        indent depth;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* One value per line is the journal's framing: no newlines anywhere
   inside the rendering (escape already encodes them in strings). *)
let to_string_compact t =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number f -> Buffer.add_string buf (number_to_string f)
    | String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            emit item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            emit v)
          fields;
        Buffer.add_char buf '}'
  in
  emit t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser: plain recursive descent over the string. *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex_digit = function
    | '0' .. '9' as d -> Char.code d - Char.code '0'
    | 'a' .. 'f' as d -> Char.code d - Char.code 'a' + 10
    | 'A' .. 'F' as d -> Char.code d - Char.code 'A' + 10
    | _ -> -1
  in
  (* JSON's string grammar: no raw character below U+0020, and a \u
     followed by exactly four hex digits. A \u escape of a UTF-16 high
     surrogate (D800-DBFF) must be followed at once by one of a low
     surrogate (DC00-DFFF); the pair is one code point past U+FFFF,
     written as its four UTF-8 bytes. A surrogate escape that is not
     part of such a pair is refused at its backslash: UTF-8 has no
     encoding for it. [unescape start stop] reads the rest of a string
     whose characters from [start] to [stop] need no unescaping. *)
  let hex4 () =
    let code = ref 0 in
    for _ = 1 to 4 do
      let d = if !pos < n then hex_digit s.[!pos] else -1 in
      if d < 0 then fail "bad \\u escape: expected 4 hex digits";
      code := (!code lsl 4) lor d;
      advance ()
    done;
    !code
  in
  let is_high c = c >= 0xD800 && c <= 0xDBFF
  and is_low c = c >= 0xDC00 && c <= 0xDFFF in
  (* The code point of the \u escape whose backslash is at [at], read
     from [pos], just past its u; a high surrogate also reads the low
     half that must follow it. *)
  let code_point at =
    let refuse what code =
      pos := at;
      fail (Printf.sprintf "lone %s surrogate \\u%04X" what code)
    in
    let hi = hex4 () in
    if is_low hi then refuse "low" hi
    else if not (is_high hi) then hi
    else if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if is_low lo then 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
      else refuse "high" hi
    end
    else refuse "high" hi
  in
  let add_utf8 buf code =
    let byte b = Buffer.add_char buf (Char.chr b) in
    let tail shift = byte (0x80 lor ((code lsr shift) land 0x3F)) in
    if code < 0x80 then byte code
    else if code < 0x800 then begin
      byte (0xC0 lor (code lsr 6));
      tail 0
    end
    else if code < 0x10000 then begin
      byte (0xE0 lor (code lsr 12));
      tail 6;
      tail 0
    end
    else begin
      byte (0xF0 lor (code lsr 18));
      tail 12;
      tail 6;
      tail 0
    end
  in
  let unescape start stop =
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf s start (stop - start);
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        if c < ' ' then fail "raw control character in string";
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape"
            else
              let e = s.[!pos] in
              advance ();
              match e with
              | '"' | '\\' | '/' ->
                  Buffer.add_char buf e;
                  loop ()
              | 'n' ->
                  Buffer.add_char buf '\n';
                  loop ()
              | 't' ->
                  Buffer.add_char buf '\t';
                  loop ()
              | 'r' ->
                  Buffer.add_char buf '\r';
                  loop ()
              | 'b' ->
                  Buffer.add_char buf '\b';
                  loop ()
              | 'f' ->
                  Buffer.add_char buf '\012';
                  loop ()
              | 'u' ->
                  add_utf8 buf (code_point (!pos - 2));
                  loop ()
              | _ -> fail "bad escape")
        | c ->
            Buffer.add_char buf c;
            loop ()
    in
    loop ()
  in
  (* Most strings hold no escape: they are one slice of the input. *)
  let parse_string () =
    expect '"';
    let rec plain i =
      if i < n && s.[i] <> '"' && s.[i] <> '\\' && s.[i] >= ' ' then
        plain (i + 1)
      else i
    in
    let start = !pos in
    let stop = plain start in
    pos := stop;
    if stop < n && s.[stop] = '"' then begin
      advance ();
      String.sub s start (stop - start)
    end
    else unescape start stop
  in
  let digit_at i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let rec skip_digits i = if digit_at i then skip_digits (i + 1) else i in
  (* The end of the one or more digits that must start at [i]. *)
  let digits i =
    if digit_at i then skip_digits (i + 1)
    else begin
      pos := i;
      fail "bad number: expected a digit"
    end
  in
  (* JSON's grammar: an optional minus, 0 or digits without a leading
     zero, an optional fraction of one or more digits, an optional
     exponent (e or E, an optional sign, one or more digits). It is
     checked in the one pass that finds the literal's end; a literal
     past the float range is refused, not read as infinity. *)
  let parse_number () =
    let start = !pos in
    let i = if start < n && s.[start] = '-' then start + 1 else start in
    let i =
      if i < n && s.[i] = '0' then
        if digit_at (i + 1) then begin
          pos := i + 1;
          fail "bad number: leading zero"
        end
        else i + 1
      else digits i
    in
    let i = if i < n && s.[i] = '.' then digits (i + 1) else i in
    let i =
      if i < n && (s.[i] = 'e' || s.[i] = 'E') then
        digits
          (if i + 1 < n && (s.[i + 1] = '+' || s.[i + 1] = '-') then i + 2
           else i + 1)
      else i
    in
    pos := i;
    let f = float_of_string (String.sub s start (i - start)) in
    if Float.is_finite f then f
    else raise (Parse_error (start, "bad number: out of range"))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (items [])
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (fields [])
    | Some _ -> Number (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* An open error already names the path; a read error does not. *)
let of_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> In_channel.input_all ic)
      with
      | exception Sys_error e -> Error (path ^ ": " ^ e)
      | contents ->
          Result.map_error (fun e -> path ^ ": " ^ e) (of_string contents))

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let number = function Number f -> Some f | _ -> None
let string_value = function String s -> Some s | _ -> None
let list_value = function List l -> Some l | _ -> None
