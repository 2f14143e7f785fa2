(* A congestion-control policy is the complete window-update rule of a
   connection: a slow-start rule (entry growth + voluntary exit) paired
   with an avoidance rule (per-ACK growth, loss and RTO reactions), plus
   the avoidance rule's pacing hints. The sender's hot path is unchanged
   — it still dispatches through the same Slow_start.t / Cong_avoid.t
   closures — while every CLI, spec and sweep names a controller here,
   and nowhere else. *)

type t = {
  name : string;
  slow_start : Slow_start.t;
  cong_avoid : Cong_avoid.t;
  pace_gains : (float * float) option;
}

let ss_rules =
  [
    ("standard", "RFC 5681 slow-start", fun _ -> Slow_start.standard ());
    ("abc", "RFC 3465 byte counting", fun _ -> Slow_start.abc ());
    ("limited", "RFC 3742 limited slow-start", fun _ -> Slow_start.limited ());
    ("hystart", "HyStart exit detection", fun _ -> Slow_start.hystart ());
    ( "ssthreshless",
      "SSthreshless Start (arXiv 1401.7146): exit onto the BDP estimate",
      fun _ -> Slow_start.ssthreshless () );
    ( "restricted",
      "the paper's PID-restricted slow-start",
      fun rc -> Slow_start.restricted ?config:rc () );
    ( "restricted-adaptive",
      "restricted, with Ti/Td tracking the RTT",
      fun rc -> Slow_start.restricted_adaptive ?config:rc () );
  ]

(* FAST regulates queueing delay, so when pacing is on it should release
   the window smoothly at the ACK rate rather than with the loss-probing
   1.2 headroom: the pacing hint belongs to the avoidance rule. *)
let ca_rules =
  [
    ("reno", "Reno AIMD", Cong_avoid.reno, None);
    ("cubic", "RFC 8312 CUBIC", (fun () -> Cong_avoid.cubic ()), None);
    ("vegas", "Vegas backlog control", (fun () -> Cong_avoid.vegas ()), None);
    ( "relentless",
      "Relentless CC (arXiv 1102.3270): a loss costs one MSS, W* = 1/p",
      Cong_avoid.relentless,
      None );
    ( "fast",
      "FAST-style delay-based avoidance",
      (fun () -> Cong_avoid.fast ()),
      Some (2.0, 1.0) );
    ( "small-rtt",
      "small-RTT scaling (arXiv 1904.07598): increase scaled by srtt/25ms",
      (fun () -> Cong_avoid.small_rtt ()),
      None );
  ]

let slow_starts = List.map (fun (n, d, _) -> (n, d)) ss_rules
let avoidances = List.map (fun (n, d, _, _) -> (n, d)) ca_rules

let bundles =
  [
    ("standard", "standard+reno");
    ("restricted", "restricted+reno");
    ("restricted-adaptive", "restricted-adaptive+reno");
    ("hystart-cubic", "hystart+cubic");
    ("ssthreshless", "ssthreshless+reno");
    ("relentless", "standard+relentless");
    ("fast", "standard+fast");
    ("small-rtt", "standard+small-rtt");
  ]

let names = List.map fst bundles

let split name =
  match String.index_opt name '+' with
  | Some i ->
      (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> (name, "reno")

let by_name ?restricted_config name =
  let ss, ca = split (Option.value (List.assoc_opt name bundles) ~default:name) in
  match
    ( List.find_opt (fun (n, _, _) -> n = ss) ss_rules,
      List.find_opt (fun (n, _, _, _) -> n = ca) ca_rules )
  with
  | Some (_, _, make_ss), Some (_, _, make_ca, pace_gains) ->
      Ok
        {
          name;
          slow_start = make_ss restricted_config;
          cong_avoid = make_ca ();
          pace_gains;
        }
  | _ ->
      let keys l = String.concat ", " (List.map fst l) in
      Error
        (Printf.sprintf
           "unknown congestion-control policy %S: want SLOW_START[+AVOIDANCE] \
            or a bundle (slow-start: %s; avoidance: %s; bundles: %s)"
           name (keys slow_starts) (keys avoidances) (keys bundles))
