(* Output checks. Every error found counts the spec or job it came from
   as failed. *)

let outcome_json o = Report.Json.to_string (Core.Spec.outcome_to_json o)

(* MD5 of the outcome JSON — the bytes Serve.Artifacts writes as
   <name>_outcome.json. A change that only makes the simulator faster
   must leave it unchanged. *)
let digest o = Digest.to_hex (Digest.string (outcome_json o))

(* No flow can deliver more than the fastest link of the topology, once
   per segment (a sharded many_flows flow aggregates its segments). *)
let line_mbps (spec : Core.Spec.t) =
  let mbps = Sim.Units.rate_to_mbps in
  match spec.Core.Spec.topology with
  | Core.Spec.Duplex d -> mbps d.Core.Spec.rate
  | Core.Spec.Dumbbell d ->
      Float.max (mbps d.Core.Spec.access_rate) (mbps d.Core.Spec.bottleneck_rate)
  | Core.Spec.Multi_dumbbell m ->
      float_of_int m.Core.Spec.segments
      *. List.fold_left Float.max 0.
           [
             mbps m.Core.Spec.m_access_rate;
             mbps m.Core.Spec.m_bottleneck_rate;
             mbps m.Core.Spec.core_rate;
           ]

let eps = 1e-9

let outcome_errors (spec : Core.Spec.t) (o : Core.Spec.outcome) =
  let errors = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun s -> errors := Printf.sprintf "%s: %s" spec.Core.Spec.name s :: !errors)
      fmt
  in
  let text = outcome_json o in
  (match Report.Json.of_string text with
  | Ok j when Report.Json.to_string j = text -> ()
  | Ok _ -> fail "outcome JSON does not round-trip"
  | Error e -> fail "outcome JSON does not parse back: %s" e);
  let cap = line_mbps spec in
  List.iter
    (fun (r : Core.Spec.flow_result) ->
      let g = r.Core.Spec.goodput_mbps and u = r.Core.Spec.utilization in
      if not (Float.is_finite g && g >= 0. && g <= cap *. (1. +. eps)) then
        fail "flow %s: goodput %g Mbit/s outside [0, %g]" r.Core.Spec.label g cap;
      if not (Float.is_finite u && u >= 0. && u <= 1. +. eps) then
        fail "flow %s: utilization %g outside [0, 1]" r.Core.Spec.label u)
    o.Core.Spec.results;
  let jain = o.Core.Spec.path.Core.Spec.jain_index in
  if not (jain > 0. && jain <= 1. +. eps) then
    fail "Jain index %g outside (0, 1]" jain;
  List.rev !errors

(* The paper's claim in direction (T1 / Fig. 1): on its own path the
   restricted scheme never stalls and delivers at least standard's
   goodput. [results] holds one flow per variant, labelled with the
   variant's name. *)
let paper_errors (results : Core.Spec.flow_result list) =
  let flow v = List.find_opt (fun r -> r.Core.Spec.label = v) results in
  match (flow "standard", flow "restricted") with
  | Some std, Some rss ->
      (if rss.Core.Spec.send_stalls <> 0 then
         [ Printf.sprintf "restricted: %d send-stalls, expected 0"
             rss.Core.Spec.send_stalls ]
       else [])
      @
      if rss.Core.Spec.goodput_mbps < std.Core.Spec.goodput_mbps then
        [
          Printf.sprintf "restricted goodput %g < standard %g Mbit/s"
            rss.Core.Spec.goodput_mbps std.Core.Spec.goodput_mbps;
        ]
      else []
  | _ -> [ "paper path: standard or restricted result missing" ]

(* Every sample of a workload must produce the same digests as the
   first; returns the indices of the samples that differ. *)
let digest_mismatches = function
  | [] -> []
  | first :: _ as all ->
      List.concat (List.mapi (fun i d -> if d = first then [] else [ i ]) all)
