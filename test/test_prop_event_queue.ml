(* Model-based property suite for the structure-of-arrays 4-ary heap:
   replay a random interleaving of add / cancel / pop against a naive
   sorted-list model and require identical observable behaviour — the
   exact (time, seq) pop order, live counts, and next_time. This is the
   guard on the engine's core semantic contract: time order first, FIFO
   insertion order at equal times, cancelled events never fire. *)

type op = Add of int (* time in us, drawn from a small range to force ties *)
        | Cancel of int (* index into previously returned handles *)
        | Pop

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Add t) (int_bound 50));
        (2, map (fun i -> Cancel i) (int_bound 1000));
        (3, return Pop);
      ])

let print_op = function
  | Add t -> Printf.sprintf "Add %d" t
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Pop -> "Pop"

let ops_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_op l))
    QCheck.Gen.(list_size (int_bound 400) op_gen)

(* Naive model: an (id, time_us, cancelled ref) list kept in insertion
   order; pop scans for the minimum (time, insertion index). *)
module Model = struct
  type entry = { id : int; time : int; mutable cancelled : bool }
  type t = { mutable entries : entry list; mutable next_id : int }

  let create () = { entries = []; next_id = 0 }

  let add m time =
    let e = { id = m.next_id; time; cancelled = false } in
    m.next_id <- m.next_id + 1;
    m.entries <- m.entries @ [ e ];
    e

  let live m = List.filter (fun e -> not e.cancelled) m.entries

  let pop m =
    match live m with
    | [] -> None
    | first :: rest ->
        let best =
          List.fold_left
            (fun best e ->
              if e.time < best.time || (e.time = best.time && e.id < best.id)
              then e
              else best)
            first rest
        in
        m.entries <- List.filter (fun e -> e != best) m.entries;
        (* drop entries cancelled before the winner: they can never fire *)
        m.entries <- List.filter (fun e -> not e.cancelled) m.entries;
        Some best.time

  let next_time m =
    match live m with
    | [] -> None
    | first :: rest ->
        Some
          (List.fold_left
             (fun acc e -> if e.time < acc then e.time else acc)
             first.time rest)

  let live_count m = List.length (live m)
end

let replay ops =
  let q = Sim.Event_queue.create ~initial_capacity:1 () in
  let m = Model.create () in
  let handles = ref [||] in
  let model_entries = ref [||] in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | Add t ->
            let h = Sim.Event_queue.add q ~time:(Sim.Time.us t) (fun () -> ()) in
            let e = Model.add m t in
            handles := Array.append !handles [| h |];
            model_entries := Array.append !model_entries [| e |]
        | Cancel i when Array.length !handles > 0 ->
            let i = i mod Array.length !handles in
            Sim.Event_queue.cancel q !handles.(i);
            !model_entries.(i).Model.cancelled <- true
        | Cancel _ -> ()
        | Pop -> (
            match (Sim.Event_queue.pop q, Model.pop m) with
            | None, None -> ()
            | Some (t, _), Some mt ->
                check (Sim.Time.equal t (Sim.Time.us mt))
            | Some _, None | None, Some _ -> check false);
      if !ok then begin
        check (Sim.Event_queue.live_count q = Model.live_count m);
        match (Sim.Event_queue.next_time q, Model.next_time m) with
        | None, None -> ()
        | Some t, Some mt -> check (Sim.Time.equal t (Sim.Time.us mt))
        | Some _, None | None, Some _ -> check false
      end)
    ops;
  (* Drain both to the end: full pop sequences must agree. *)
  let rec drain () =
    if !ok then
      match (Sim.Event_queue.pop q, Model.pop m) with
      | None, None -> ()
      | Some (t, _), Some mt ->
          check (Sim.Time.equal t (Sim.Time.us mt));
          drain ()
      | Some _, None | None, Some _ -> check false
  in
  drain ();
  !ok && Sim.Event_queue.is_empty q

let qcheck_model =
  QCheck.Test.make
    ~name:"SoA 4-ary heap matches sorted-list model under add/cancel/pop"
    ~count:300 ops_arb replay

let qcheck_model_cancel_heavy =
  (* Bias hard toward cancellation, so most cancels remove an entry
     from the middle of the heap and the last entry must move up or
     down into the hole. *)
  let gen =
    QCheck.Gen.(
      list_size (int_bound 600)
        (frequency
           [
             (4, map (fun t -> Add t) (int_bound 20));
             (6, map (fun i -> Cancel i) (int_bound 1000));
             (1, return Pop);
           ]))
  in
  QCheck.Test.make
    ~name:"heap matches model under cancel-heavy load"
    ~count:200
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map print_op l)) gen)
    replay

(* The full key. Events are added with an explicit birth, or armed
   late under a sequence number reserved earlier; handles include stale
   ones (fired or cancelled) and [null]. The reference is a list of the
   live events sorted by (time, birth, seq); each pop must fire exactly
   its head, and every handle ever issued must report [is_cancelled]
   exactly when the reference no longer holds its event. *)
type keyed_op =
  | Add_at of int * int (* time, birth *)
  | Reserve
  | Arm of int * int * int (* reservation index, time, birth *)
  | Cancel_at of int (* index into issued handles, one past: null *)
  | Pop_one

let keyed_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun t b -> Add_at (t, b)) (int_bound 20) (int_bound 5));
        (2, return Reserve);
        ( 2,
          map3 (fun i t b -> Arm (i, t, b)) (int_bound 1000) (int_bound 20)
            (int_bound 5) );
        (3, map (fun i -> Cancel_at i) (int_bound 1000));
        (3, return Pop_one);
      ])

let print_keyed_op = function
  | Add_at (t, b) -> Printf.sprintf "Add_at (%d, %d)" t b
  | Reserve -> "Reserve"
  | Arm (i, t, b) -> Printf.sprintf "Arm (%d, %d, %d)" i t b
  | Cancel_at i -> Printf.sprintf "Cancel_at %d" i
  | Pop_one -> "Pop_one"

module Keyed = struct
  type entry = { id : int; time : int; birth : int; seq : int }

  let before a b = compare (a.time, a.birth, a.seq) (b.time, b.birth, b.seq) < 0

  (* Live events, sorted by key. *)
  let rec insert e = function
    | [] -> [ e ]
    | x :: rest as l -> if before e x then e :: l else x :: insert e rest
end

let replay_keyed ops =
  let q = Sim.Event_queue.create ~initial_capacity:1 () in
  let live = ref [] in
  let next_seq = ref 0 in
  let handles = ref [||] (* indexed by event id *) in
  let reserved = ref [||] (* seqs not yet armed *) in
  let fired = ref (-1) in
  let ok = ref true in
  let check b = if not b then ok := false in
  (* [schedule] adds the event with the given action; [seq] is the
     sequence number the queue must give it. *)
  let add ~time ~birth ~seq schedule =
    let id = Array.length !handles in
    let h = schedule (fun () -> fired := id) in
    handles := Array.append !handles [| h |];
    live := Keyed.insert { Keyed.id; time; birth; seq } !live
  in
  let pop () =
    match (Sim.Event_queue.pop q, !live) with
    | None, [] -> ()
    | Some (t, f), e :: rest ->
        f ();
        check (!fired = e.Keyed.id && Sim.Time.equal t (Sim.Time.us e.Keyed.time));
        live := rest
    | Some _, [] | None, _ :: _ -> check false
  in
  List.iter
    (fun op ->
      if !ok then begin
        (match op with
        | Add_at (time, birth) ->
            let seq = !next_seq in
            incr next_seq;
            add ~time ~birth ~seq (fun action ->
                Sim.Event_queue.add q ~birth:(Sim.Time.us birth)
                  ~time:(Sim.Time.us time) action)
        | Reserve ->
            let seq = Sim.Event_queue.reserve q in
            check (seq = !next_seq);
            incr next_seq;
            reserved := Array.append !reserved [| seq |]
        | Arm (_, _, _) when Array.length !reserved = 0 -> ()
        | Arm (i, time, birth) ->
            let i = i mod Array.length !reserved in
            let seq = !reserved.(i) in
            reserved :=
              Array.of_list
                (List.filteri (fun j _ -> j <> i) (Array.to_list !reserved));
            add ~time ~birth ~seq (fun action ->
                Sim.Event_queue.add_reserved q ~birth:(Sim.Time.us birth) ~seq
                  ~time:(Sim.Time.us time) action)
        | Cancel_at i ->
            let n = Array.length !handles in
            let i = i mod (n + 1) in
            if i = n then Sim.Event_queue.cancel q Sim.Event_queue.null
            else begin
              Sim.Event_queue.cancel q !handles.(i);
              live := List.filter (fun e -> e.Keyed.id <> i) !live
            end
        | Pop_one -> pop ());
        check (Sim.Event_queue.live_count q = List.length !live);
        check (Sim.Event_queue.is_cancelled q Sim.Event_queue.null);
        Array.iteri
          (fun id h ->
            check
              (Sim.Event_queue.is_cancelled q h
              = not (List.exists (fun e -> e.Keyed.id = id) !live)))
          !handles
      end)
    ops;
  while !ok && !live <> [] do
    pop ()
  done;
  !ok && Sim.Event_queue.is_empty q

let qcheck_model_keyed =
  QCheck.Test.make
    ~name:"indexed heap matches (time, birth, seq) model with reserved keys"
    ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map print_keyed_op l))
       QCheck.Gen.(list_size (int_bound 300) keyed_op_gen))
    replay_keyed

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_model;
    QCheck_alcotest.to_alcotest qcheck_model_cancel_heavy;
    QCheck_alcotest.to_alcotest qcheck_model_keyed;
  ]
