(* Per-ACK congestion-window tables. One connection on a clean duplex
   (100 Mbit/s, 10 ms one way, IFQ 1000) moves 60 segments with no
   delayed ACKs, an initial window of 2 segments and ssthresh 16·MSS.
   A trace ring on the sender records every window change as
   (time_ns, cwnd, ssthresh), so each row below is one ACK's effect.
   Every slow-start rule runs with Reno, and standard slow-start runs
   with every avoidance rule, each lossless and with data segment 30
   dropped once. The tables are committed under test/golden_cwnd/ and
   compared byte-for-byte: a refactor of how controllers are looked up
   must not move any window by a single byte. On a mismatch the fresh
   table is written to the temp directory (named in the failure).

   The hand-checkable steps are asserted inline too: +1 MSS per ACK up
   to 16 MSS, then +MSS²/cwnd per ACK, then Reno's halving at the
   loss. The suite also pins the minor words each avoidance rule's
   [on_ack] allocates, so a change that adds a box per ACK fails here. *)

let mss = Tcp.Config.default.Tcp.Config.mss
let mss_f = float_of_int mss
let segments = 60
let dropped_segment = 30

let config =
  {
    Tcp.Config.default with
    Tcp.Config.delayed_ack = None;
    init_cwnd_segments = 2;
    init_ssthresh = 16. *. mss_f;
  }

let slow_starts =
  [
    "standard"; "abc"; "limited"; "hystart"; "ssthreshless"; "restricted";
    "restricted-adaptive";
  ]

let avoidances = [ "reno"; "cubic"; "vegas"; "relentless"; "fast"; "small-rtt" ]

(* Every slow-start with Reno, then standard with every other
   avoidance: 12 (slow-start, avoidance) pairs. *)
let pairs =
  List.map (fun ss -> (ss, "reno")) slow_starts
  @ List.filter_map
      (fun ca -> if ca = "reno" then None else Some ("standard", ca))
      avoidances

let controllers (ss, ca) =
  match Tcp.Policy.by_name (ss ^ "+" ^ ca) with
  | Ok p -> (p.Tcp.Policy.slow_start, p.Tcp.Policy.cong_avoid)
  | Error e -> invalid_arg e

let cong_avoid_of_name ca = snd (controllers ("standard", ca))

type row = { time_ns : int; cwnd : int; ssthresh : int }

let run ~lossy pair =
  let slow_start, cong_avoid = controllers pair in
  let sched = Sim.Scheduler.create ~seed:1 () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate:(Sim.Units.mbps 100.)
      ~one_way_delay:(Sim.Time.ms 10) ~ifq_capacity:1000 ()
  in
  if lossy then
    Netsim.Link.set_drop_filter path.Netsim.Topology.Duplex.a_to_b
      (Test_recovery.drop_nth_data dropped_segment);
  let ids = Netsim.Packet.Id_source.create () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~config ~slow_start
      ~cong_avoid ~bytes:(segments * mss) ()
  in
  let sender = conn.Tcp.Connection.sender in
  let tr = Trace.create ~capacity:4096 ~mask:Trace.Code.cat_tcp () in
  Tcp.Sender.set_tracer sender (Some tr);
  Sim.Scheduler.run ~until:(Sim.Time.sec 10) sched;
  Alcotest.(check int) "transfer completes" (segments * mss)
    (Tcp.Sender.bytes_acked sender);
  let rows = ref [] in
  Trace.iter tr (fun ~time_ns ~code ~src:_ ~arg1 ~arg2 ->
      if code = Trace.Code.tcp_cwnd then
        rows := { time_ns; cwnd = arg1; ssthresh = arg2 } :: !rows);
  List.rev !rows

let render rows =
  String.concat ""
    ("time_ns,cwnd,ssthresh\n"
    :: List.map
         (fun r -> Printf.sprintf "%d,%d,%d\n" r.time_ns r.cwnd r.ssthresh)
         rows)

let golden_dir = "golden_cwnd"

let file_of ~lossy (ss, ca) =
  Printf.sprintf "%s+%s_%s.csv" ss ca (if lossy then "drop30" else "lossless")

let test_table ~lossy pair () =
  let file = file_of ~lossy pair in
  let golden =
    In_channel.with_open_bin (Filename.concat golden_dir file)
      In_channel.input_all
  in
  let actual = render (run ~lossy pair) in
  if actual <> golden then begin
    let fresh = Filename.concat (Filename.get_temp_dir_name ()) file in
    Out_channel.with_open_bin fresh (fun oc -> output_string oc actual);
    Alcotest.failf "%s differs from the committed golden (fresh table: %s)"
      file fresh
  end

(* --- the hand-checkable steps of standard + Reno ---------------------- *)

(* Rows in slow-start: 2, 3, ..., 16 MSS, one MSS per ACK. *)
let check_slow_start rows =
  List.iteri
    (fun i r ->
      if i <= 14 then
        Alcotest.(check int)
          (Printf.sprintf "slow-start row %d: %d MSS" i (i + 2))
          ((i + 2) * mss) r.cwnd)
    rows

(* From 16 MSS on, each ACK adds MSS²/cwnd; the trace truncates the
   float window to whole bytes. *)
let check_additive_increase rows ~until =
  let w = ref (16. *. mss_f) in
  List.iteri
    (fun i r ->
      if i > 14 && i < until then begin
        w := !w +. (mss_f *. mss_f /. !w);
        Alcotest.(check int)
          (Printf.sprintf "avoidance row %d: +MSS²/cwnd" i)
          (int_of_float !w) r.cwnd
      end)
    rows

let test_standard_reno_lossless () =
  let rows = run ~lossy:false ("standard", "reno") in
  check_slow_start rows;
  check_additive_increase rows ~until:(List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "ssthresh stays at 16 MSS" (16 * mss) r.ssthresh)
    rows

let test_standard_reno_halving () =
  let rows = run ~lossy:true ("standard", "reno") in
  check_slow_start rows;
  let loss =
    let rec find i = function
      | r :: rest -> if r.ssthresh < 16 * mss then i else find (i + 1) rest
      | [] -> Alcotest.fail "no loss reaction recorded"
    in
    find 0 rows
  in
  check_additive_increase rows ~until:loss;
  let before = List.nth rows (loss - 1) and at = List.nth rows loss in
  (* The sender sends whole segments, and each of the three duplicate
     ACKs SACKs one of them: the flight Reno halves is the window's
     whole segments less those three. *)
  Alcotest.(check int) "ssthresh = flight / 2"
    (((before.cwnd / mss) - 3) * mss / 2)
    at.ssthresh;
  Alcotest.(check int) "cwnd drops to ssthresh" at.ssthresh at.cwnd

(* --- allocation per on_ack -------------------------------------------- *)

(* Minor words over 10,000 [on_ack] calls at a 100-segment window, with
   srtt and min RTT set at 60 ms and the clock advancing 1 ms per ACK,
   so the once-per-RTT rules (vegas, fast) update every 60 ACKs. Exact
   for a given build: the dev profile compiles with -opaque, so every
   float crossing a module boundary is boxed. *)
let acks = 10_000

let minor_words ca =
  let cc = cong_avoid_of_name ca in
  let srtt = Some (Sim.Time.ms 60) in
  let on_ack = cc.Tcp.Cong_avoid.on_ack in
  let w = ref (100. *. mss_f) in
  let before = Gc.minor_words () in
  for i = 1 to acks do
    w :=
      on_ack ~newly_acked:mss ~cwnd:!w ~mss ~srtt ~min_rtt:srtt
        ~now:(Sim.Time.ms i)
  done;
  int_of_float (Gc.minor_words () -. before)

(* Exact totals: 4 words per ACK for reno, relentless and small-rtt
   (whose scaled step is inlined, so its scale factor is not boxed), 8
   for cubic, and for vegas (2) and fast (8) a few more on each
   once-per-RTT update. *)
let expected_words =
  [
    ("reno", 40_000); ("cubic", 80_006); ("vegas", 21_002);
    ("relentless", 40_000); ("fast", 80_668); ("small-rtt", 40_000);
  ]

let test_minor_words () =
  List.iter
    (fun (ca, words) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: minor words over %d ACKs" ca acks)
        words (minor_words ca))
    expected_words

(* The same budget per round: Reno's per-round fold, in place on a
   window column as the many-flows engine applies it. 5,000 one-row
   calls of 200 ACKs from a 100-segment window at a 60 ms srtt (the
   engine's one-row loop), then 25 calls over a 2,000-row column at
   100 to 299 ACKs per row (a whole cohort through the four lanes).
   The lanes run over unboxed accumulators and write the column:
   nothing is boxed. *)
let test_round_words () =
  let { Tcp.Cong_avoid.fold; _ } =
    Option.get (cong_avoid_of_name "reno").Tcp.Cong_avoid.on_round
  in
  let srtt = Sim.Time.ms 60 in
  let w = [| 100. *. mss_f |] and row = [| 0 |] and acks = [| 200 |] in
  let before = Gc.minor_words () in
  for _ = 1 to 5_000 do
    fold w row acks 1 ~mss ~srtt
  done;
  Alcotest.(check int) "reno: minor words over 5,000 one-row calls" 0
    (int_of_float (Gc.minor_words () -. before));
  let n = 2_000 in
  let w = Array.init n (fun i -> float_of_int (100 + (i mod 200)) *. mss_f) in
  let rows = Array.init n Fun.id in
  let acks = Array.init n (fun i -> 100 + (i * 7 mod 200)) in
  let before = Gc.minor_words () in
  for _ = 1 to 25 do
    fold w rows acks n ~mss ~srtt
  done;
  Alcotest.(check int) "reno: minor words over 25 calls of 2,000 rows" 0
    (int_of_float (Gc.minor_words () -. before))

let suite =
  List.concat_map
    (fun lossy ->
      List.map
        (fun pair ->
          Alcotest.test_case (file_of ~lossy pair) `Quick
            (test_table ~lossy pair))
        pairs)
    [ false; true ]
  @ [
      Alcotest.test_case "standard+reno: +1 MSS, then +MSS²/cwnd" `Quick
        test_standard_reno_lossless;
      Alcotest.test_case "standard+reno: halving at the loss" `Quick
        test_standard_reno_halving;
      Alcotest.test_case "minor words per avoidance on_ack" `Quick
        test_minor_words;
      Alcotest.test_case "minor words per Reno on_round" `Quick
        test_round_words;
    ]
