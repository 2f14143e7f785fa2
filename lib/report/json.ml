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
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
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
                  if !pos + 4 > n then fail "bad \\u escape";
                  let code = int_of_string ("0x" ^ String.sub s !pos 4) in
                  pos := !pos + 4;
                  (* BMP only; enough for our artefacts *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf
                      (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end;
                  loop ()
              | _ -> fail "bad escape")
        | c ->
            Buffer.add_char buf c;
            loop ()
    in
    loop ()
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
  | exception Failure msg -> Error ("JSON parse error: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let number = function Number f -> Some f | _ -> None
let string_value = function String s -> Some s | _ -> None
let list_value = function List l -> Some l | _ -> None
