let test_table_render () =
  let out =
    Report.Table.render
      ~aligns:[ Report.Table.Left; Report.Table.Right ]
      ~headers:[ "name"; "value" ]
      ~rows:[ [ "alpha"; "1" ]; [ "b"; "22" ] ]
      ()
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  Alcotest.(check string) "header" "name   value" (List.hd lines);
  Alcotest.(check bool) "right-aligned digits" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_table_pads_short_rows () =
  let out =
    Report.Table.render ~headers:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] ()
  in
  Alcotest.(check bool) "renders without exception" true
    (String.length out > 0)

let test_cells () =
  Alcotest.(check string) "float cell" "3.14" (Report.Table.cell_f 3.14159);
  Alcotest.(check string) "decimals" "3.1416"
    (Report.Table.cell_f ~decimals:4 3.14159);
  Alcotest.(check string) "int cell" "42" (Report.Table.cell_i 42)

let test_chart_renders () =
  let series =
    {
      Report.Ascii_chart.label = "x";
      points = Array.init 50 (fun i -> (float_of_int i, Float.sin (float_of_int i /. 5.)));
    }
  in
  let out = Report.Ascii_chart.line_chart ~width:40 ~height:10 [ series ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "has legend" true
    (List.exists (fun l -> String.length l > 0 && String.contains l 'x') lines);
  Alcotest.(check bool) "has axis" true
    (List.exists (fun l -> String.contains l '+') lines);
  Alcotest.(check bool) "plots glyphs" true (String.contains out '*')

let test_chart_empty () =
  Alcotest.(check string) "empty note" "(no data to chart)\n"
    (Report.Ascii_chart.line_chart [])

let test_chart_of_series () =
  let s = Sim.Stats.Series.create ~name:"y" () in
  Sim.Stats.Series.add s (Sim.Time.sec 1) 5.;
  Sim.Stats.Series.add s (Sim.Time.sec 2) 7.;
  let adapted = Report.Ascii_chart.of_series ~label:"y" s in
  Alcotest.(check int) "points" 2 (Array.length adapted.Report.Ascii_chart.points);
  let x, y = adapted.Report.Ascii_chart.points.(1) in
  Alcotest.(check (float 1e-9)) "x seconds" 2. x;
  Alcotest.(check (float 1e-9)) "y value" 7. y

let test_csv_write () =
  let dir = Filename.temp_file "rss" "" in
  Sys.remove dir;
  let path = Filename.concat dir "sub/test.csv" in
  Report.Csv.write ~path ~header:[ "a"; "b" ]
    ~rows:[ [ 1.; 2. ]; [ 3.5; 4.25 ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check (list string)) "file contents"
    [ "a,b"; "1,2"; "3.5,4.25" ]
    (List.rev !lines)

let test_csv_series () =
  let dir = Filename.temp_file "rss" "" in
  Sys.remove dir;
  let path = Filename.concat dir "series.csv" in
  let s = Sim.Stats.Series.create ~name:"v" () in
  Sim.Stats.Series.add s (Sim.Time.ms 500) 1.5;
  Report.Csv.write_series ~path ~name:"v" s;
  let ic = open_in path in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Alcotest.(check string) "header" "time_s,v" header;
  Alcotest.(check string) "row" "0.5,1.5" row

let test_csv_write_string () =
  let dir = Filename.temp_file "rss" "" in
  Sys.remove dir;
  let path = Filename.concat dir "log.csv" in
  Report.Csv.write_string ~path "a,b\n1,2\n";
  let ic = open_in path in
  let header = input_line ic in
  close_in ic;
  Alcotest.(check string) "verbatim contents" "a,b" header

let test_csv_precision_late_timestamps () =
  let dir = Filename.temp_file "rss" "" in
  Sys.remove dir;
  let path = Filename.concat dir "late.csv" in
  (* Past 1000 s, %.6g collapsed microsecond-resolution timestamps to
     "1000.12": consecutive samples became identical rows. Cells must
     round-trip exactly. *)
  let t1 = 1000.123456 and t2 = 1000.123789 in
  Report.Csv.write ~path ~header:[ "time_s"; "v" ]
    ~rows:[ [ t1; 1. ]; [ t2; 2. ]; [ 12345.6789012345; 3. ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  (match List.rev !lines with
  | [ _header; r1; r2; r3 ] ->
      let cell row = List.hd (String.split_on_char ',' row) in
      Alcotest.(check bool) "rows stay distinct" false (cell r1 = cell r2);
      Alcotest.(check (float 0.)) "t1 round-trips" t1
        (float_of_string (cell r1));
      Alcotest.(check (float 0.)) "t2 round-trips" t2
        (float_of_string (cell r2));
      Alcotest.(check (float 0.)) "long mantissa round-trips" 12345.6789012345
        (float_of_string (cell r3))
  | l -> Alcotest.failf "expected 4 lines, got %d" (List.length l));
  (* Short values keep their compact spelling. *)
  let path2 = Filename.concat dir "short.csv" in
  Report.Csv.write ~path:path2 ~header:[ "v" ] ~rows:[ [ 3.5 ]; [ 0.5 ] ];
  let ic = open_in path2 in
  ignore (input_line ic);
  let short = input_line ic in
  close_in ic;
  Alcotest.(check string) "3.5 stays 3.5" "3.5" short

let test_trace_export_csv () =
  let tr = Trace.create ~capacity:8 () in
  Trace.emit tr ~time_ns:1_500_000_000 ~code:Trace.Code.link_tx ~src:1
    ~arg1:7 ~arg2:1500;
  Trace.emit tr ~time_ns:1_500_000_001 ~code:Trace.Code.tcp_cwnd ~src:2
    ~arg1:29200 ~arg2:64000;
  let lines =
    String.split_on_char '\n' (String.trim (Report.Trace_event.to_csv tr))
  in
  Alcotest.(check (list string))
    "csv rows"
    [
      "time_s,event,src,arg1,arg2";
      "1.500000000,link.tx,1,7,1500";
      "1.500000001,tcp.cwnd,2,29200,64000";
    ]
    lines

let test_trace_export_chrome () =
  let tr = Trace.create ~capacity:8 () in
  Trace.emit tr ~time_ns:2_000 ~code:Trace.Code.ifq_stall ~src:3 ~arg1:1
    ~arg2:0;
  Trace.emit tr ~time_ns:3_000 ~code:Trace.Code.tcp_cwnd ~src:1 ~arg1:14600
    ~arg2:29200;
  let text = Report.Trace_event.to_chrome ~name:"unit" tr in
  (match Report.Json.of_string text with
  | Error e -> Alcotest.failf "invalid chrome trace JSON: %s" e
  | Ok doc -> (
      match Report.Json.member "traceEvents" doc with
      | Some (Report.Json.List events) ->
          (* metadata + one instant + one counter *)
          Alcotest.(check int) "event count" 3 (List.length events)
      | _ -> Alcotest.fail "traceEvents missing"));
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter phase" true (contains "\"ph\":\"C\"");
  Alcotest.(check bool) "instant phase" true (contains "\"ph\":\"i\"");
  Alcotest.(check bool) "per-flow counter track" true
    (contains "tcp.cwnd/1");
  Alcotest.(check bool) "microsecond timestamps" true (contains "\"ts\":2.000")

let test_json_non_finite () =
  let doc =
    Report.Json.Obj
      [
        ("nan", Report.Json.Number Float.nan);
        ("inf", Report.Json.Number Float.infinity);
        ("neg_inf", Report.Json.Number Float.neg_infinity);
        ("finite", Report.Json.Number 1.5);
      ]
  in
  let text = Report.Json.to_string doc in
  (* JSON has no nan/inf literals; the writer must stay parseable. *)
  match Report.Json.of_string text with
  | Error e -> Alcotest.failf "emitted invalid JSON: %s" e
  | Ok parsed ->
      let is_null key =
        match Report.Json.member key parsed with
        | Some Report.Json.Null -> true
        | _ -> false
      in
      Alcotest.(check bool) "nan -> null" true (is_null "nan");
      Alcotest.(check bool) "inf -> null" true (is_null "inf");
      Alcotest.(check bool) "-inf -> null" true (is_null "neg_inf");
      Alcotest.(check (option (float 1e-9))) "finite survives" (Some 1.5)
        (Option.bind (Report.Json.member "finite" parsed) Report.Json.number)

(* Only JSON's number grammar reads: no sign but a leading minus, no
   bare or trailing point, no leading zero, no empty exponent, nothing
   past the float range. Every refusal names the offset. *)
let test_json_number_grammar () =
  List.iter
    (fun (text, error) ->
      match Report.Json.of_string text with
      | Ok _ -> Alcotest.failf "accepted %s" text
      | Error e -> Alcotest.(check string) text error e)
    [
      ( {|{"domains": +1, "trace_capacity": 1.e3}|},
        "JSON parse error at offset 12: bad number: expected a digit" );
      ( {|{"duration_s": .5}|},
        "JSON parse error at offset 15: bad number: expected a digit" );
      ( {|{"duration_s": 01}|},
        "JSON parse error at offset 16: bad number: leading zero" );
      ("1.", "JSON parse error at offset 2: bad number: expected a digit");
      ("-", "JSON parse error at offset 1: bad number: expected a digit");
      ("1e", "JSON parse error at offset 2: bad number: expected a digit");
      ("1e999", "JSON parse error at offset 0: bad number: out of range");
    ];
  let reads text =
    match Report.Json.of_string text with
    | Ok (Report.Json.Number x) -> x
    | Ok _ -> Alcotest.failf "%s is not a number" text
    | Error e -> Alcotest.failf "refused %s: %s" text e
  in
  List.iter
    (fun (text, v) ->
      Alcotest.(check (float 0.)) text v (reads text);
      Alcotest.(check bool) (text ^ " sign") (Float.sign_bit v)
        (Float.sign_bit (reads text)))
    [ ("-0", -0.); ("0.5", 0.5); ("1E-3", 1e-3); ("1e+20", 1e20) ];
  List.iter
    (fun v ->
      let text = Report.Json.to_string (Report.Json.Number v) in
      Alcotest.(check (float 0.)) ("round trip " ^ text) v (reads text))
    [ 0.; 42.; -7.; 1e20; 0.1; 1. /. 3.; -2.5e-8; Float.pi; -1e300 ]

(* Only JSON's string grammar reads: no raw character below U+0020,
   and a \u escape takes exactly four hex digits. Every refusal names
   the offset. *)
let test_json_string_grammar () =
  let bad_u = "bad \\u escape: expected 4 hex digits" in
  List.iter
    (fun (text, error) ->
      match Report.Json.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error e ->
          Alcotest.(check string) (String.escaped text)
            ("JSON parse error at offset " ^ error) e)
    [
      ("\"a\nb\"", "2: raw control character in string");
      ("\"a\001b\"", "2: raw control character in string");
      ({|"\u1_23"|}, "4: " ^ bad_u);
      ({|"\uZZZZ"|}, "3: " ^ bad_u);
      ({|"\u00"|}, "5: " ^ bad_u);
    ];
  let reads text =
    match Report.Json.of_string text with
    | Ok (Report.Json.String x) -> x
    | Ok _ -> Alcotest.failf "%s is not a string" text
    | Error e -> Alcotest.failf "refused %s: %s" text e
  in
  Alcotest.(check string) {|"\u00e9"|} "\xc3\xa9" (reads {|"\u00e9"|});
  Alcotest.(check string) {|"x\u00e9y"|} "x\xc3\xa9y" (reads {|"x\u00e9y"|});
  Alcotest.(check string) {|"\/"|} "/" (reads {|"\/"|});
  let controls = String.init 0x20 Char.chr in
  Alcotest.(check string) "every control byte round-trips" controls
    (reads (Report.Json.to_string (Report.Json.String controls)))

(* Code points past U+FFFF arrive as a UTF-16 surrogate pair of \u
   escapes and must come out as their 4-byte UTF-8 sequence, not as two
   3-byte ones (CESU-8). A surrogate escape outside a pair has no UTF-8
   form: it is refused at its backslash. *)
let test_json_surrogate_pairs () =
  let reads text =
    match Report.Json.of_string text with
    | Ok (Report.Json.String x) -> x
    | Ok _ -> Alcotest.failf "%s is not a string" text
    | Error e -> Alcotest.failf "refused %s: %s" text e
  in
  List.iter
    (fun (text, utf8) -> Alcotest.(check string) text utf8 (reads text))
    [
      ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80");
      ({|"\uD83D\uDE00"|}, "\xf0\x9f\x98\x80");
      ({|"a\ud800\udc00b"|}, "a\xf0\x90\x80\x80b");
      ({|"\udbff\udfff"|}, "\xf4\x8f\xbf\xbf");
      ({|"\ud7ff\ue000"|}, "\xed\x9f\xbf\xee\x80\x80");
    ];
  List.iter
    (fun (text, error) ->
      match Report.Json.of_string text with
      | Ok _ -> Alcotest.failf "accepted %s" text
      | Error e ->
          Alcotest.(check string) text ("JSON parse error at offset " ^ error) e)
    [
      ({|"\ud83d"|}, "1: lone high surrogate \\uD83D");
      ({|"\ude00"|}, "1: lone low surrogate \\uDE00");
      ({|"x\ud83dy"|}, "2: lone high surrogate \\uD83D");
      ({|"\ud83d\u0041"|}, "1: lone high surrogate \\uD83D");
      ({|"\ud83d\ud83d\ude00"|}, "1: lone high surrogate \\uD83D");
      ({|"\ude00\ud83d"|}, "1: lone low surrogate \\uDE00");
      ({|"\ud83d\n"|}, "1: lone high surrogate \\uD83D");
      ({|"\ud83d\u00"|}, "11: bad \\u escape: expected 4 hex digits");
    ]

let suite =
  [
    Alcotest.test_case "json non-finite floats" `Quick test_json_non_finite;
    Alcotest.test_case "csv write_string" `Quick test_csv_write_string;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads short rows" `Quick
      test_table_pads_short_rows;
    Alcotest.test_case "cells" `Quick test_cells;
    Alcotest.test_case "chart renders" `Quick test_chart_renders;
    Alcotest.test_case "chart empty" `Quick test_chart_empty;
    Alcotest.test_case "chart of_series" `Quick test_chart_of_series;
    Alcotest.test_case "csv write" `Quick test_csv_write;
    Alcotest.test_case "csv series" `Quick test_csv_series;
    Alcotest.test_case "csv precision past 1000 s" `Quick
      test_csv_precision_late_timestamps;
    Alcotest.test_case "trace export csv" `Quick test_trace_export_csv;
    Alcotest.test_case "trace export chrome" `Quick test_trace_export_chrome;
    Alcotest.test_case "json number grammar" `Quick test_json_number_grammar;
    Alcotest.test_case "json string grammar" `Quick test_json_string_grammar;
    Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogate_pairs;
  ]
