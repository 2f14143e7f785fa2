(* Tcp.Policy registry units plus differential tests: a flow named
   through the spec's [policy] field must replay byte-identical runs
   against the same name in its [slow_start] field on the experiment
   shapes (E5 bottleneck, E8 friendliness, E11 parallel streams). *)

module Spec = Core.Spec

let sec = Sim.Time.sec
let ms = Sim.Time.ms

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- registry units ---------------------------------------------------- *)

let builtin_names =
  [
    "standard"; "restricted"; "restricted-adaptive"; "hystart-cubic";
    "ssthreshless"; "relentless"; "fast"; "small-rtt";
  ]

let test_registry_names () =
  Alcotest.(check (list string)) "the named bundles, in matrix order"
    builtin_names Tcp.Policy.names;
  Alcotest.(check (list string)) "one pair per bundle" builtin_names
    (List.map fst Tcp.Policy.bundles);
  List.iter
    (fun (n, doc) ->
      Alcotest.(check bool) (n ^ " has a doc line") true
        (String.length doc > 0))
    (Tcp.Policy.slow_starts @ Tcp.Policy.avoidances)

(* A slow-start name alone pairs it with Reno, "ss+ca" names both
   halves, and the four aliases expand to the pairs they name. *)
let test_name_grammar () =
  let halves name =
    match Tcp.Policy.by_name name with
    | Ok p ->
        ( p.Tcp.Policy.slow_start.Tcp.Slow_start.name,
          p.Tcp.Policy.cong_avoid.Tcp.Cong_avoid.name,
          p.Tcp.Policy.pace_gains )
    | Error e -> Alcotest.fail e
  in
  let check name expected =
    Alcotest.(check (triple string string (option (pair (float 0.) (float 0.)))))
      name expected (halves name)
  in
  check "restricted" ("restricted", "reno", None);
  check "abc" ("abc", "reno", None);
  check "limited+cubic" ("limited", "cubic", None);
  check "restricted+vegas" ("restricted", "vegas", None);
  check "hystart-cubic" ("hystart", "cubic", None);
  check "relentless" ("standard", "relentless", None);
  check "small-rtt" ("standard", "small-rtt", None);
  (* The pacing hint belongs to the avoidance rule. *)
  check "fast" ("standard", "fast", Some (2.0, 1.0));
  check "hystart+fast" ("hystart", "fast", Some (2.0, 1.0));
  List.iter
    (fun bad ->
      match Tcp.Policy.by_name bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error e ->
          Alcotest.(check bool) (bad ^ ": error names it") true
            (contains e (Printf.sprintf "%S" bad)))
    [ "standard+bogus"; "bogus+reno"; "relentless+cubic"; "reno"; "" ];
  Alcotest.(check (pair string string)) "split" ("hystart", "cubic")
    (Tcp.Policy.split "hystart+cubic");
  Alcotest.(check (pair string string)) "split, no avoidance part"
    ("restricted", "reno")
    (Tcp.Policy.split "restricted")

let test_by_name_fresh_instances () =
  List.iter
    (fun n ->
      match (Tcp.Policy.by_name n, Tcp.Policy.by_name n) with
      | Ok a, Ok b ->
          Alcotest.(check string) "name matches" n a.Tcp.Policy.name;
          (* Controllers carry per-connection state: two lookups must
             never share policy records. *)
          Alcotest.(check bool) "fresh slow-start" false
            (a.Tcp.Policy.slow_start == b.Tcp.Policy.slow_start);
          Alcotest.(check bool) "fresh cong-avoid" false
            (a.Tcp.Policy.cong_avoid == b.Tcp.Policy.cong_avoid)
      | _ -> Alcotest.failf "by_name %S failed" n)
    builtin_names

let test_by_name_unknown () =
  match Tcp.Policy.by_name "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error e ->
      Alcotest.(check bool) "error names the policy" true
        (String.length e > 0
        && contains e "bogus"
        && contains e "standard")

let test_restricted_config_threads () =
  (* A custom PID tuning must reach the restricted policy's controller:
     with max_step_segments = 0 the window can never move. *)
  let config =
    {
      Tcp.Slow_start.default_restricted_config with
      Tcp.Slow_start.max_step_segments = 0.;
    }
  in
  let p =
    match Tcp.Policy.by_name ~restricted_config:config "restricted" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let mss = 1460 in
  let now = ref Sim.Time.zero in
  let cwnd = ref (2. *. float_of_int mss) in
  let snd_nxt = ref (2 * mss) in
  let view : Tcp.Slow_start.view =
    {
      Tcp.Slow_start.now = (fun () -> !now);
      mss;
      cwnd = (fun () -> !cwnd);
      ssthresh = (fun () -> infinity);
      flight = (fun () -> !snd_nxt);
      snd_una = (fun () -> 0);
      snd_nxt = (fun () -> !snd_nxt);
      srtt = (fun () -> None);
      min_rtt = (fun () -> None);
      ifq_occupancy = (fun () -> 0);
      ifq_capacity = (fun () -> 100);
    }
  in
  for i = 1 to 50 do
    now := ms (2 * i);
    let d =
      p.Tcp.Policy.slow_start.Tcp.Slow_start.on_ack view ~newly_acked:mss
        ~rtt_sample:None
    in
    Alcotest.(check (float 0.)) "zero-step tuning freezes the window" 0.
      d.Tcp.Slow_start.cwnd_delta
  done

let test_small_rtt_scaling () =
  (* The registered bundle resolves, and its avoidance rule scales the
     additive increase linearly with srtt below the 25 ms reference
     while matching Reno at and above it. *)
  (match Tcp.Policy.by_name "small-rtt" with
  | Ok p ->
      Alcotest.(check string) "bundle resolves" "small-rtt"
        p.Tcp.Policy.cong_avoid.Tcp.Cong_avoid.name
  | Error e -> Alcotest.fail e);
  let mss = 1460 in
  let m = float_of_int mss in
  let cwnd = 20. *. m in
  let cc = Tcp.Cong_avoid.small_rtt () in
  let step srtt =
    cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd ~mss ~srtt:(Some srtt)
      ~min_rtt:(Some srtt) ~now:Sim.Time.zero
    -. cwnd
  in
  let reno_step = m *. m /. cwnd in
  Alcotest.(check (float 1e-9)) "at the reference RTT: Reno" reno_step
    (step (ms 25));
  Alcotest.(check (float 1e-9)) "above the reference RTT: Reno" reno_step
    (step (ms 100));
  Alcotest.(check (float 1e-9)) "at srtt = ref/5 the step is a fifth"
    (reno_step /. 5.) (step (ms 5));
  Alcotest.(check (float 1e-9))
    "no estimate yet: falls back to Reno" reno_step
    (cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd ~mss ~srtt:None
       ~min_rtt:None ~now:Sim.Time.zero
    -. cwnd)

(* --- spec integration -------------------------------------------------- *)

let test_spec_rejects_unknown_policy () =
  let spec =
    {
      Spec.default with
      Spec.flows =
        [ { Spec.default_flow with Spec.policy = Some "no-such-policy" } ];
    }
  in
  match Spec.build spec with
  | _ -> Alcotest.fail "unknown policy accepted"
  | exception Invalid_argument _ -> ()

let test_spec_rejects_policy_with_shared_rss () =
  let spec =
    {
      Spec.default with
      Spec.flows =
        [
          {
            Spec.default_flow with
            Spec.policy = Some "standard";
            shared_rss = true;
          };
        ];
    }
  in
  match Spec.build spec with
  | _ -> Alcotest.fail "policy + shared_rss accepted"
  | exception Invalid_argument _ -> ()

let test_flow_policy_json_round_trip () =
  let spec =
    {
      Spec.default with
      Spec.name = "policy-json";
      Spec.flows =
        [
          { Spec.default_flow with Spec.policy = Some "relentless" };
          Spec.default_flow;
        ];
    }
  in
  let text = Report.Json.to_string (Spec.to_json spec) in
  match Report.Json.of_string text with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok json -> (
      match Spec.of_json json with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok spec' ->
          Alcotest.(check bool) "round-trips" true (spec = spec');
          Alcotest.(check bool) "policy carried" true
            ((List.hd spec'.Spec.flows).Spec.policy = Some "relentless"))

(* --- differential replay: policy field vs slow_start field -------------- *)

(* Byte-level fingerprint of an outcome: every scalar counter plus the
   full cwnd time series, rendered through the round-trip CSV float
   format. Equal fingerprints mean the refactor replayed the exact
   window trajectory. *)
let fingerprint (o : Spec.outcome) =
  let series s =
    Sim.Stats.Series.values s |> Array.to_list
    |> List.map Report.Csv.cell |> String.concat ";"
  in
  List.map
    (fun (r : Spec.flow_result) ->
      Printf.sprintf "%s|%s|%s|%d|%d|%d|%d|%s|cwnd:%s|tput:%s" r.Spec.label
        (Report.Csv.cell r.Spec.goodput_mbps)
        (Report.Csv.cell r.Spec.final_cwnd_segments)
        r.Spec.send_stalls r.Spec.congestion_signals r.Spec.retransmits
        r.Spec.timeouts
        (Report.Csv.cell r.Spec.mean_ifq)
        (series r.Spec.cwnd_series)
        (series r.Spec.throughput_series))
    o.Spec.results

let check_differential ~what ~legacy ~policy =
  let lhs = fingerprint (Spec.run legacy) in
  let rhs = fingerprint (Spec.run policy) in
  Alcotest.(check (list string)) what lhs rhs;
  (* Guard against an accidentally empty comparison. *)
  Alcotest.(check bool) (what ^ ": flows present") true (lhs <> [])

(* E5's bottleneck shape: 1-pair dumbbell, fast access links into a
   100 Mbit/s, 28 ms bottleneck with a quarter-BDP buffer. *)
let e5_topology =
  let rate = Sim.Units.mbps 100. in
  let bdp =
    Sim.Units.bdp_packets rate ~rtt:(ms 60) ~packet_bytes:1500
  in
  Spec.Dumbbell
    {
      Spec.pairs = 1;
      access_rate = Sim.Units.gbps 1.;
      access_delay = ms 1;
      bottleneck_rate = rate;
      bottleneck_delay = ms 28;
      buffer_packets = Stdlib.max 10 (int_of_float (bdp /. 4.));
      host_ifq_capacity = 1000;
      red = None;
    }

(* E8's friendliness shape: two pairs through a shared 100 Mbit/s
   bottleneck. *)
let e8_topology =
  Spec.Dumbbell
    {
      Spec.pairs = 2;
      access_rate = Sim.Units.mbps 100.;
      access_delay = ms 1;
      bottleneck_rate = Sim.Units.mbps 100.;
      bottleneck_delay = ms 28;
      buffer_packets = 250;
      host_ifq_capacity = 100;
      red = None;
    }

let diff_spec ~name ~seed ~duration topology flows =
  {
    Spec.default with
    Spec.name;
    seed;
    duration;
    record_series = true;
    topology;
    flows;
  }

let legacy_flow ?(pair = 0) ?start_at name =
  {
    Spec.default_flow with
    Spec.pair;
    start_at =
      (match start_at with Some t -> t | None -> Sim.Time.zero);
    slow_start = name;
  }

let policy_flow ?(pair = 0) ?start_at name =
  {
    Spec.default_flow with
    Spec.pair;
    start_at =
      (match start_at with Some t -> t | None -> Sim.Time.zero);
    policy = Some name;
  }

let test_differential_e5 () =
  List.iter
    (fun name ->
      check_differential
        ~what:(Printf.sprintf "E5 bottleneck, %s" name)
        ~legacy:
          (diff_spec ~name:"e5-legacy" ~seed:7 ~duration:(sec 3) e5_topology
             [ legacy_flow name ])
        ~policy:
          (diff_spec ~name:"e5-policy" ~seed:7 ~duration:(sec 3) e5_topology
             [ policy_flow name ]))
    [ "standard"; "restricted" ]

let test_differential_e8 () =
  (* E8's mixed pairing: standard on pair 0, restricted joining on
     pair 1 — both flows must replay exactly. *)
  check_differential ~what:"E8 friendliness pair"
    ~legacy:
      (diff_spec ~name:"e8-legacy" ~seed:23 ~duration:(sec 3) e8_topology
         [
           legacy_flow "standard";
           legacy_flow ~pair:1 ~start_at:(sec 1) "restricted";
         ])
    ~policy:
      (diff_spec ~name:"e8-policy" ~seed:23 ~duration:(sec 3) e8_topology
         [
           policy_flow "standard";
           policy_flow ~pair:1 ~start_at:(sec 1) "restricted";
         ])

let test_differential_e11 () =
  (* E11's parallel-stream shape: three restricted flows sharing the
     paper duplex. *)
  let flows mk = List.init 3 (fun _ -> mk "restricted") in
  check_differential ~what:"E11 parallel streams"
    ~legacy:
      (diff_spec ~name:"e11-legacy" ~seed:4 ~duration:(sec 3)
         (Spec.Duplex Spec.default_duplex)
         (flows (fun n -> legacy_flow n)))
    ~policy:
      (diff_spec ~name:"e11-policy" ~seed:4 ~duration:(sec 3)
         (Spec.Duplex Spec.default_duplex)
         (flows (fun n -> policy_flow n)))

(* Every named bundle must drive a clean paper-path run to a sane
   outcome: bytes flow and the window respects the 2-segment floor. *)
let test_all_policies_run () =
  List.iter
    (fun name ->
      let spec =
        diff_spec
          ~name:("zoo-smoke__" ^ name)
          ~seed:1 ~duration:(sec 2)
          (Spec.Duplex Spec.default_duplex)
          [ policy_flow name ]
      in
      let o = Spec.run { spec with Spec.record_series = false } in
      let r = List.hd o.Spec.results in
      Alcotest.(check bool) (name ^ " moves data") true
        (r.Spec.goodput_mbps > 0.1);
      Alcotest.(check bool) (name ^ " respects the window floor") true
        (r.Spec.final_cwnd_segments >= 2.))
    Tcp.Policy.names

let suite =
  [
    Alcotest.test_case "registry names and docs" `Quick test_registry_names;
    Alcotest.test_case "by_name returns fresh instances" `Quick
      test_by_name_fresh_instances;
    Alcotest.test_case "by_name rejects unknown" `Quick test_by_name_unknown;
    Alcotest.test_case "restricted_config reaches the controller" `Quick
      test_restricted_config_threads;
    Alcotest.test_case "name grammar: ss, ss+ca, aliases" `Quick
      test_name_grammar;
    Alcotest.test_case "small-rtt scales the additive increase" `Quick
      test_small_rtt_scaling;
    Alcotest.test_case "spec rejects unknown policy" `Quick
      test_spec_rejects_unknown_policy;
    Alcotest.test_case "spec rejects policy + shared_rss" `Quick
      test_spec_rejects_policy_with_shared_rss;
    Alcotest.test_case "flow policy JSON round-trip" `Quick
      test_flow_policy_json_round_trip;
    Alcotest.test_case "differential replay: E5 bottleneck" `Quick
      test_differential_e5;
    Alcotest.test_case "differential replay: E8 friendliness" `Quick
      test_differential_e8;
    Alcotest.test_case "differential replay: E11 parallel streams" `Quick
      test_differential_e11;
    Alcotest.test_case "every policy completes a paper-path run" `Quick
      test_all_policies_run;
  ]
