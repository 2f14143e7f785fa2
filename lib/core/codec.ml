(* Each JSON object of a spec is described once: its members in output
   order, each with a key, a kind, a default (none: the key is required)
   and a getter, plus the function that builds the value from the
   members, in the same order. [to_json], [of_json] and every object's
   set of legal keys are read off that description. Decoding is strict:
   an object refuses a key outside its set (keys that start with '_'
   are free, for comments), and every error names the key's path, as in
   [flows[0].pair]. *)

module Json = Report.Json

type _ kind =
  | Int : int kind  (** an integral number within ±2^53 *)
  | Float : float kind  (** a finite number *)
  | Str : string kind
  | Bool : bool kind
  | Decimal : int kind  (** an int written as a decimal string *)
  | Time : Sim.Time.t kind
      (** a member of this kind (or of [Opt Time]) is keyed
          [<key>_ns], integer nanoseconds and the spelling written,
          or [<key>_s], float seconds; never both *)
  | Opt : 'a kind -> 'a option kind  (** [null] is [None] *)
  | Items : 'a kind -> 'a list kind
  | Record : ('a, 'a) obj -> 'a kind
  | Tagged : string option * 'a case list -> 'a kind
      (** the object's ["kind"] key (default: the string) picks the
          case *)
  | Conv : 'b kind * ('a -> 'b) * ('b -> ('a, string) result) -> 'a kind

and ('r, 'a) member = {
  key : string;
  secs_key : string option;  (** [<key>_s], for a duration *)
  kind : 'a kind;
  default : 'a option;
  get : 'r -> 'a;
}

(* Members read from ['r]; ['k] is the type of the function that
   builds ['v] from their values. *)
and ('r, 'k, 'v) members =
  | [] : ('r, 'v, 'v) members
  | ( :: ) :
      ('r, 'a) member * ('r, 'k, 'v) members
      -> ('r, 'a -> 'k, 'v) members

and ('r, 'v) obj =
  | Obj : {
      members : ('r, 'k, 'v) members;
      make : 'k;
      keys : string list;
    }
      -> ('r, 'v) obj

(* A case of a tagged object; inline records travel as tuples. *)
and 'v case =
  | Case : { tag : string; proj : 'v -> 'r option; obj : ('r, 'v) obj }
      -> 'v case

let rec is_time : type a. a kind -> bool = function
  | Time -> true
  | Opt k -> is_time k
  | _ -> false

let mem ?default key kind get =
  if is_time kind then
    { key = key ^ "_ns"; secs_key = Some (key ^ "_s"); kind; default; get }
  else { key; secs_key = None; kind; default; get }

let rec keys : type r k v. (r, k, v) members -> string list = function
  | [] -> []
  | m :: ms -> (m.key :: Option.to_list m.secs_key) @ keys ms

let record make members = Record (Obj { members; make; keys = keys members })

let case tag proj make members =
  let obj = Obj { members; make; keys = "kind" :: keys members } in
  Case { tag; proj; obj }

(* --- encoding --- *)

let rec write : type a. a kind -> a -> Json.t =
 fun kind v ->
  match kind with
  | Int -> Json.Number (float_of_int v)
  | Float -> Json.Number v
  | Str -> Json.String v
  | Bool -> Json.Bool v
  | Decimal -> Json.String (string_of_int v)
  | Time -> Json.Number (float_of_int (Sim.Time.to_ns_int v))
  | Opt k -> ( match v with None -> Json.Null | Some v -> write k v)
  | Items k -> Json.List (List.map (write k) v)
  | Record o -> Json.Obj (write_members o v)
  | Tagged (_, cases) ->
      Option.get
        (List.find_map
           (fun (Case c) ->
             Option.map
               (fun r ->
                 Json.Obj
                   (("kind", Json.String c.tag) :: write_members c.obj r))
               (c.proj v))
           cases)
  | Conv (k, enc, _) -> write k (enc v)

and write_members : type r v. (r, v) obj -> r -> (string * Json.t) list =
 fun (Obj o) r ->
  let rec go : type k. (r, k, v) members -> (string * Json.t) list =
    function
    | [] -> []
    | m :: ms -> (m.key, write m.kind (m.get r)) :: go ms
  in
  go o.members

(* --- decoding --- *)

(* Where a value sits; rendered only when an error names it. *)
type path = Top | Key of path * string | At of path * int

exception Bad of string

let rec render = function
  | Top -> ""
  | Key (Top, k) -> k
  | Key (p, k) -> render p ^ "." ^ k
  | At (p, i) -> Printf.sprintf "%s[%d]" (render p) i

let fail p fmt =
  Printf.ksprintf
    (fun m -> raise (Bad (if p = Top then m else render p ^ ": " ^ m)))
    fmt

let rec expected : type a. a kind -> string = function
  | Int -> "an integer"
  | Float | Time -> "a number"
  | Str -> "a string"
  | Bool -> "true or false"
  | Decimal -> "a decimal string (a JSON number cannot hold every int)"
  | Opt k -> expected k ^ " or null"
  | Items _ -> "a list"
  | Record _ | Tagged _ -> "an object"
  | Conv (k, _, _) -> expected k

(* A double holds every integer up to 2^53, and no longer past it. *)
let integral p f ~what =
  if Float.is_integer f && Float.abs f <= 0x1p53 then int_of_float f
  else fail p "%g is not %s within ±2^53" f what

let decimal p s =
  let digits =
    if String.starts_with ~prefix:"-" s then
      String.sub s 1 (String.length s - 1)
    else s
  in
  let is_digit c = c >= '0' && c <= '9' in
  match int_of_string_opt s with
  | Some n when String.for_all is_digit digits -> n
  | _ -> fail p "%S is not a decimal integer" s

let free key = String.starts_with ~prefix:"_" key

(* [List.assoc_opt] by string equality rather than polymorphic
   compare: decoding is part of every run's setup. *)
let rec find key : (string * Json.t) list -> Json.t option = function
  | [] -> None
  | (k, v) :: fields -> if String.equal k key then Some v else find key fields

let refuse_unknown p fields keys =
  let unknown (k, _) = not (free k || List.mem k keys) in
  match List.find_opt unknown fields with
  | Some (k, _) ->
      fail (Key (p, k)) "unknown key (known: %s)" (String.concat ", " keys)
  | None -> ()

(* [used] members were found among [fields]; any other key that is not
   free is unknown, or given twice. *)
let check_keys p fields used keys =
  let given =
    List.fold_left (fun n (k, _) -> if free k then n else n + 1) 0 fields
  in
  if given > used then begin
    refuse_unknown p fields keys;
    let k, _ =
      List.find
        (fun (k, _) ->
          List.length (List.filter (fun (k', _) -> k' = k) fields) > 1)
        fields
    in
    fail (Key (p, k)) "given twice"
  end

let rec read : type a. path -> secs:bool -> a kind -> Json.t -> a =
 fun p ~secs kind j ->
  match (kind, j) with
  | Int, Json.Number f -> integral p f ~what:"an integer"
  | Float, Json.Number f when Float.is_finite f -> f
  | Float, Json.Number f -> fail p "%g is not finite" f
  | Str, Json.String s -> s
  | Bool, Json.Bool b -> b
  | Decimal, Json.String s -> decimal p s
  | Time, Json.Number f when secs ->
      (* The bound of the [_ns] spelling, which is what [write] gives
         back: a double holds integer ns exactly only up to 2^53. *)
      let ns = Float.round (f *. 1e9) in
      if Float.abs ns <= 0x1p53 then Sim.Time.of_ns_int (int_of_float ns)
      else fail p "%g s is outside ±2^53 ns (about 104 days)" f
  | Time, Json.Number f ->
      Sim.Time.of_ns_int (integral p f ~what:"a whole number of ns")
  | Opt _, Json.Null -> None
  | Opt k, j -> Some (read p ~secs k j)
  | Items k, Json.List items ->
      List.mapi (fun i j -> read (At (p, i)) ~secs k j) items
  | Record o, Json.Obj fields -> read_members p fields o 0
  | Tagged (default, cases), Json.Obj fields -> (
      let tag, used =
        match (find "kind" fields, default) with
        | Some (Json.String tag), _ -> (tag, 1)
        | Some _, _ -> fail (Key (p, "kind")) "expected a string"
        | None, Some tag -> (tag, 0)
        | None, None -> fail (Key (p, "kind")) "missing"
      in
      match List.find_opt (fun (Case c) -> c.tag = tag) cases with
      | Some (Case c) -> read_members p fields c.obj used
      | None ->
          fail (Key (p, "kind")) "unknown kind %S (known: %s)" tag
            (String.concat ", " (List.map (fun (Case c) -> c.tag) cases)))
  | Conv (k, _, dec), j -> (
      match dec (read p ~secs k j) with
      | Ok v -> v
      | Error e -> fail p "%s" e)
  | _ -> fail p "expected %s" (expected kind)

and read_members :
    type r v. path -> (string * Json.t) list -> (r, v) obj -> int -> v =
 fun p fields (Obj o) used ->
  let used = ref used in
  let rec fill : type k. (r, k, v) members -> k -> v =
   fun ms make ->
    match ms with
    | [] -> make
    | m :: ms -> fill ms (make (read_member p fields used m))
  in
  (* A misspelt key leaves its member missing or at its default, so an
     object's unknown key is reported before any error inside it. *)
  let v =
    try fill o.members o.make
    with Bad _ as e ->
      refuse_unknown p fields o.keys;
      raise e
  in
  check_keys p fields !used o.keys;
  v

and read_member :
    type r a.
    path -> (string * Json.t) list -> int ref -> (r, a) member -> a =
 fun p fields used m ->
  let secs = match m.secs_key with None -> None | Some k -> find k fields in
  match (find m.key fields, secs, m.secs_key) with
  | Some _, Some _, Some k ->
      fail (Key (p, k)) "%s is given too; use one spelling" m.key
  | None, Some j, Some k ->
      incr used;
      read (Key (p, k)) ~secs:true m.kind j
  | Some j, _, _ ->
      incr used;
      read (Key (p, m.key)) ~secs:false m.kind j
  | None, _, _ -> (
      match m.default with
      | Some d -> d
      | None -> fail (Key (p, m.key)) "missing")

let decode kind j =
  match read Top ~secs:false kind j with
  | v -> Ok v
  | exception Bad e -> Error e

(* --- vocabulary --- *)

let names kind =
  let add acc (spellings : string list) =
    if List.mem spellings acc then acc else spellings :: acc
  in
  let rec go : type a. string list list -> a kind -> string list list =
   fun acc kind ->
    match kind with
    | Int | Float | Str | Bool | Decimal | Time -> acc
    | Opt k -> go acc k
    | Items k -> go acc k
    | Conv (k, _, _) -> go acc k
    | Record o -> obj acc o
    | Tagged (_, cases) ->
        List.fold_left
          (fun acc (Case c) -> obj (add acc [ c.tag ]) c.obj)
          (add acc [ "kind" ]) cases
  and obj : type r v. string list list -> (r, v) obj -> string list list =
   fun acc (Obj o) -> members acc o.members
  and members :
      type r k v. string list list -> (r, k, v) members -> string list list =
   fun acc ms ->
    match ms with
    | [] -> acc
    | m :: ms ->
        members (go (add acc (m.key :: Option.to_list m.secs_key)) m.kind) ms
  in
  List.rev (go [] kind)

(* --- the spec's field table --------------------------------------------- *)

open Spec_types

(* A rate travels in Mbit/s. *)
let mbps =
  Conv (Float, Sim.Units.rate_to_mbps, fun f -> Ok (Sim.Units.mbps f))

let red_codec =
  let open Netsim.Queue_disc in
  record
    (fun min_th max_th max_p weight -> { min_th; max_th; max_p; weight })
    [
      mem "min_th" Float (fun r -> r.min_th);
      mem "max_th" Float (fun r -> r.max_th);
      mem "max_p" Float (fun r -> r.max_p);
      mem "weight" Float (fun r -> r.weight);
    ]

let ge_codec =
  record
    (fun p_gb p_bg loss_good loss_bad -> { Fm.p_gb; p_bg; loss_good; loss_bad })
    [
      mem "p_gb" Float (fun g -> g.Fm.p_gb);
      mem "p_bg" Float (fun g -> g.Fm.p_bg);
      mem "loss_good" Float (fun g -> g.Fm.loss_good);
      mem "loss_bad" Float (fun g -> g.Fm.loss_bad);
    ]

let jitter_codec =
  record
    (fun prob max_extra -> { Fm.prob; max_extra })
    [
      mem "prob" Float (fun j -> j.Fm.prob);
      mem "max_extra" Time (fun j -> j.Fm.max_extra);
    ]

let event_codec =
  let outage =
    case "outage"
      (function Fm.Outage { start; stop } -> Some (start, stop) | _ -> None)
      (fun start stop -> Fm.Outage { start; stop })
      [ mem "start" Time fst; mem "stop" Time snd ]
  and delay_step =
    case "delay_step"
      (function Fm.Delay_step { at; extra } -> Some (at, extra) | _ -> None)
      (fun at extra -> Fm.Delay_step { at; extra })
      [ mem "at" Time fst; mem "extra" Time snd ]
  in
  Tagged (None, [ outage; delay_step ])

let profile_codec =
  record
    (fun ge reorder duplicate schedule ->
      { Fm.ge; reorder; duplicate; schedule })
    [
      mem "ge" (Opt ge_codec) ~default:None (fun p -> p.Fm.ge);
      mem "reorder" (Opt jitter_codec) ~default:None (fun p -> p.Fm.reorder);
      mem "duplicate" (Opt jitter_codec) ~default:None (fun p ->
          p.Fm.duplicate);
      mem "schedule" (Items event_codec) ~default:Fm.passthrough.Fm.schedule
        (fun p -> p.Fm.schedule);
    ]

let faults_codec =
  record
    (fun forward reverse -> { forward; reverse })
    [
      mem "forward" profile_codec ~default:Fm.passthrough (fun f -> f.forward);
      mem "reverse" profile_codec ~default:Fm.passthrough (fun f -> f.reverse);
    ]

(* Each topology kind keeps its own defaults. *)
let topology_codec =
  let dd = default_duplex and mb100 = Sim.Units.mbps 100. in
  let ms = Sim.Time.ms in
  let duplex =
    case "duplex"
      (function Duplex d -> Some d | _ -> None)
      (fun rate one_way_delay ifq_capacity loss_rate ifq_red_ecn ->
        Duplex { rate; one_way_delay; ifq_capacity; loss_rate; ifq_red_ecn })
      [
        mem "rate_mbps" mbps ~default:dd.rate (fun d -> d.rate);
        mem "one_way_delay" Time ~default:dd.one_way_delay (fun d ->
            d.one_way_delay);
        mem "ifq_capacity" Int ~default:dd.ifq_capacity (fun d ->
            d.ifq_capacity);
        mem "loss_rate" Float ~default:dd.loss_rate (fun d -> d.loss_rate);
        mem "ifq_red_ecn" (Opt red_codec) ~default:None (fun d ->
            d.ifq_red_ecn);
      ]
  and dumbbell =
    case "dumbbell"
      (function Dumbbell d -> Some d | _ -> None)
      (fun pairs access_rate access_delay bottleneck_rate bottleneck_delay
           buffer_packets host_ifq_capacity red ->
        Dumbbell
          { pairs; access_rate; access_delay; bottleneck_rate;
            bottleneck_delay; buffer_packets; host_ifq_capacity; red })
      [
        mem "pairs" Int ~default:2 (fun d -> d.pairs);
        mem "access_rate_mbps" mbps ~default:mb100 (fun d -> d.access_rate);
        mem "access_delay" Time ~default:(ms 1) (fun d -> d.access_delay);
        mem "bottleneck_rate_mbps" mbps ~default:mb100 (fun d ->
            d.bottleneck_rate);
        mem "bottleneck_delay" Time ~default:(ms 28) (fun d ->
            d.bottleneck_delay);
        mem "buffer_packets" Int ~default:250 (fun d -> d.buffer_packets);
        mem "ifq_capacity" Int ~default:100 (fun d -> d.host_ifq_capacity);
        mem "red" (Opt red_codec) ~default:None (fun d -> d.red);
      ]
  and chain =
    case "dumbbell_of_dumbbells"
      (function Multi_dumbbell m -> Some m | _ -> None)
      (fun segments m_pairs m_access_rate m_access_delay m_bottleneck_rate
           m_bottleneck_delay core_rate core_delay m_buffer_packets
           m_host_ifq_capacity m_red cross_pairs ->
        Multi_dumbbell
          { segments; m_pairs; m_access_rate; m_access_delay;
            m_bottleneck_rate; m_bottleneck_delay; core_rate; core_delay;
            m_buffer_packets; m_host_ifq_capacity; m_red; cross_pairs })
      [
        mem "segments" Int ~default:2 (fun m -> m.segments);
        mem "pairs" Int ~default:2 (fun m -> m.m_pairs);
        mem "access_rate_mbps" mbps ~default:mb100 (fun m -> m.m_access_rate);
        mem "access_delay" Time ~default:(ms 1) (fun m -> m.m_access_delay);
        mem "bottleneck_rate_mbps" mbps ~default:mb100 (fun m ->
            m.m_bottleneck_rate);
        mem "bottleneck_delay" Time ~default:(ms 10) (fun m ->
            m.m_bottleneck_delay);
        mem "core_rate_mbps" mbps ~default:(Sim.Units.mbps 400.) (fun m ->
            m.core_rate);
        mem "core_delay" Time ~default:(ms 5) (fun m -> m.core_delay);
        mem "buffer_packets" Int ~default:250 (fun m -> m.m_buffer_packets);
        mem "ifq_capacity" Int ~default:100 (fun m -> m.m_host_ifq_capacity);
        mem "red" (Opt red_codec) ~default:None (fun m -> m.m_red);
        mem "cross_pairs" Int ~default:0 (fun m -> m.cross_pairs);
      ]
  in
  Tagged (Some "duplex", [ duplex; dumbbell; chain ])

let workload_codec =
  let bulk =
    case "bulk"
      (function Bulk { bytes } -> Some bytes | _ -> None)
      (fun bytes -> Bulk { bytes })
      [ mem "bytes" (Opt Int) ~default:None Fun.id ]
  and chunked =
    case "chunked"
      (function
        | Chunked { chunk_bytes; interval; chunks } ->
            Some (chunk_bytes, interval, chunks)
        | _ -> None)
      (fun chunk_bytes interval chunks ->
        Chunked { chunk_bytes; interval; chunks })
      [
        mem "chunk_bytes" Int (fun (b, _, _) -> b);
        mem "interval" Time (fun (_, i, _) -> i);
        mem "chunks" (Opt Int) ~default:None (fun (_, _, n) -> n);
      ]
  and cbr =
    case "cbr"
      (function
        | Cbr { rate; packet_bytes; stop_at } ->
            Some (rate, packet_bytes, stop_at)
        | _ -> None)
      (fun rate packet_bytes stop_at -> Cbr { rate; packet_bytes; stop_at })
      [
        mem "rate_mbps" mbps (fun (r, _, _) -> r);
        mem "packet_bytes" Int ~default:1000 (fun (_, b, _) -> b);
        mem "stop_at" (Opt Time) ~default:None (fun (_, _, s) -> s);
      ]
  and on_off =
    case "on_off"
      (function
        | On_off { peak_rate; mean_on; mean_off; packet_bytes } ->
            Some (peak_rate, mean_on, mean_off, packet_bytes)
        | _ -> None)
      (fun peak_rate mean_on mean_off packet_bytes ->
        On_off { peak_rate; mean_on; mean_off; packet_bytes })
      [
        mem "peak_rate_mbps" mbps (fun (r, _, _, _) -> r);
        mem "mean_on" Time (fun (_, t, _, _) -> t);
        mem "mean_off" Time (fun (_, _, t, _) -> t);
        mem "packet_bytes" Int ~default:1000 (fun (_, _, _, b) -> b);
      ]
  and short_flows =
    case "short_flows"
      (function
        | Short_flows { arrival_rate; mean_size; pareto_shape; stop_at } ->
            Some (arrival_rate, mean_size, pareto_shape, stop_at)
        | _ -> None)
      (fun arrival_rate mean_size pareto_shape stop_at ->
        Short_flows { arrival_rate; mean_size; pareto_shape; stop_at })
      [
        mem "arrival_rate" Float (fun (r, _, _, _) -> r);
        mem "mean_size" Int ~default:30_720 (fun (_, s, _, _) -> s);
        mem "pareto_shape" Float ~default:1.2 (fun (_, _, a, _) -> a);
        mem "stop_at" (Opt Time) ~default:None (fun (_, _, _, s) -> s);
      ]
  and many_flows =
    case "many_flows"
      (function
        | Many_flows
            { flows; arrival_rate; arrival_pareto_shape; mean_size;
              size_pareto_shape } ->
            Some
              ( flows, arrival_rate, arrival_pareto_shape, mean_size,
                size_pareto_shape )
        | _ -> None)
      (fun flows arrival_rate arrival_pareto_shape mean_size
           size_pareto_shape ->
        Many_flows
          { flows; arrival_rate; arrival_pareto_shape; mean_size;
            size_pareto_shape })
      [
        mem "flows" Int ~default:1000 (fun (n, _, _, _, _) -> n);
        mem "arrival_rate" (Opt Float) ~default:None (fun (_, r, _, _, _) -> r);
        mem "arrival_pareto_shape" (Opt Float) ~default:None
          (fun (_, _, a, _, _) -> a);
        mem "mean_size" (Opt Int) ~default:None (fun (_, _, _, s, _) -> s);
        mem "size_pareto_shape" Float ~default:1.2 (fun (_, _, _, _, a) -> a);
      ]
  in
  Tagged
    (Some "bulk", [ bulk; chunked; cbr; on_off; short_flows; many_flows ])

let restricted_codec =
  let open Tcp.Slow_start in
  record
    (fun kp ti td setpoint_fraction max_step_segments sample_min_interval ->
      { gains = { Control.Pid.kp; ti; td }; setpoint_fraction;
        max_step_segments; sample_min_interval })
    [
      mem "kp" Float (fun c -> c.gains.Control.Pid.kp);
      (* A P-only controller's ti = infinity is written as null. *)
      mem "ti"
        (Conv
           ( Opt Float,
             (fun ti -> if ti = Float.infinity then None else Some ti),
             fun ti -> Ok (Option.value ti ~default:Float.infinity) ))
        (fun c -> c.gains.ti);
      mem "td" Float (fun c -> c.gains.td);
      mem "setpoint_fraction" Float (fun c -> c.setpoint_fraction);
      mem "max_step_segments" Float (fun c -> c.max_step_segments);
      mem "sample_min_interval" Time (fun c -> c.sample_min_interval);
    ]

let flow_codec =
  let d = default_flow and split f = Tcp.Policy.split f.slow_start in
  record
    (fun label pair start_at policy ss restricted shared_rss ca
         local_congestion delayed_ack use_sack pacing slow_start_restart
         max_rto workload ->
      (* The legacy [cong_avoid] key names the avoidance half of
         [slow_start]; "reno" (the default) adds nothing. *)
      let slow_start = if ca = "reno" then ss else ss ^ "+" ^ ca in
      { label; pair; start_at; policy; slow_start; restricted; shared_rss;
        local_congestion; delayed_ack; use_sack; pacing; slow_start_restart;
        max_rto; workload })
    [
      mem "label" (Opt Str) ~default:None (fun (f : flow) -> f.label);
      mem "pair" Int ~default:d.pair (fun f -> f.pair);
      mem "start_at" Time ~default:d.start_at (fun f -> f.start_at);
      mem "policy" (Opt Str) ~default:None (fun f -> f.policy);
      (* [slow_start] goes out as the legacy key pair, so a spec's bytes
         (its snapshot identity) and its default labels never change. *)
      mem "slow_start" Str ~default:d.slow_start (fun f -> fst (split f));
      mem "restricted" (Opt restricted_codec) ~default:None (fun f ->
          f.restricted);
      mem "shared_rss" Bool ~default:d.shared_rss (fun f -> f.shared_rss);
      mem "cong_avoid" Str ~default:"reno" (fun f -> snd (split f));
      mem "local_congestion"
        Tcp.Local_congestion.(Conv (Str, to_string, of_string))
        ~default:d.local_congestion (fun f -> f.local_congestion);
      mem "delayed_ack" (Opt Time) ~default:d.delayed_ack (fun f ->
          f.delayed_ack);
      mem "use_sack" Bool ~default:d.use_sack (fun f -> f.use_sack);
      mem "pacing" Bool ~default:d.pacing (fun f -> f.pacing);
      mem "slow_start_restart" Bool ~default:d.slow_start_restart (fun f ->
          f.slow_start_restart);
      mem "max_rto" (Opt Time) ~default:d.max_rto (fun f -> f.max_rto);
      mem "workload" workload_codec ~default:d.workload (fun f -> f.workload);
    ]

let spec =
  let d = default in
  record
    (fun name seed duration sample_period record_series record_trace
         trace_capacity domains topology flows faults ->
      { name; seed; duration; sample_period; record_series; record_trace;
        trace_capacity; domains; topology; flows; faults })
    [
      mem "name" Str ~default:d.name (fun (t : t) -> t.name);
      (* Seeds from [Rng.derive_seed] are 62-bit; a JSON double only
         holds 53, so the seed travels as a decimal string. *)
      mem "seed" Decimal ~default:d.seed (fun t -> t.seed);
      mem "duration" Time ~default:d.duration (fun t -> t.duration);
      mem "sample_period" Time ~default:d.sample_period (fun t ->
          t.sample_period);
      mem "record_series" Bool ~default:d.record_series (fun t ->
          t.record_series);
      mem "record_trace" Bool ~default:d.record_trace (fun t -> t.record_trace);
      mem "trace_capacity" Int ~default:d.trace_capacity (fun t ->
          t.trace_capacity);
      mem "domains" Int ~default:d.domains (fun t -> t.domains);
      mem "topology" topology_codec ~default:d.topology (fun t -> t.topology);
      mem "flows" (Items flow_codec) ~default:d.flows (fun t -> t.flows);
      mem "faults" faults_codec ~default:d.faults (fun t -> t.faults);
    ]
