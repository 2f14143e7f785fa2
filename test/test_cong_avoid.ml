let mss = 1460

let test_reno_additive_increase () =
  let cc = Tcp.Cong_avoid.reno () in
  let cwnd = 10. *. float_of_int mss in
  let next =
    cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd ~mss ~srtt:None ~min_rtt:None
      ~now:Sim.Time.zero
  in
  (* +MSS²/cwnd per ACK: ten ACKs make one MSS per RTT. *)
  Alcotest.(check (float 1e-6)) "increment" (float_of_int mss /. 10.)
    (next -. cwnd)

let test_reno_halves_on_loss () =
  let cc = Tcp.Cong_avoid.reno () in
  let flight = 20 * mss in
  let ssthresh, cwnd =
    cc.Tcp.Cong_avoid.on_loss ~cwnd:(20. *. float_of_int mss) ~flight ~mss
      ~now:Sim.Time.zero
  in
  Alcotest.(check (float 1e-6)) "ssthresh = flight/2"
    (10. *. float_of_int mss) ssthresh;
  Alcotest.(check (float 1e-6)) "cwnd follows" ssthresh cwnd

let test_reno_floor () =
  let cc = Tcp.Cong_avoid.reno () in
  let ssthresh, _ =
    cc.Tcp.Cong_avoid.on_loss ~cwnd:(float_of_int mss) ~flight:mss ~mss
      ~now:Sim.Time.zero
  in
  Alcotest.(check (float 1e-6)) "floor 2 MSS" (2. *. float_of_int mss) ssthresh

let test_reno_rto () =
  let cc = Tcp.Cong_avoid.reno () in
  let ssthresh, cwnd =
    cc.Tcp.Cong_avoid.on_rto ~cwnd:(40. *. float_of_int mss)
      ~flight:(40 * mss) ~mss
  in
  Alcotest.(check (float 1e-6)) "ssthresh" (20. *. float_of_int mss) ssthresh;
  Alcotest.(check (float 1e-6)) "loss window = 1 MSS" (float_of_int mss) cwnd

let test_cubic_beta_decrease () =
  let cc = Tcp.Cong_avoid.cubic () in
  let cwnd = 100. *. float_of_int mss in
  let ssthresh, next =
    cc.Tcp.Cong_avoid.on_loss ~cwnd ~flight:(100 * mss) ~mss
      ~now:(Sim.Time.sec 1)
  in
  Alcotest.(check (float 1e-6)) "beta = 0.7" (0.7 *. cwnd) next;
  Alcotest.(check (float 1e-6)) "ssthresh matches" next ssthresh

let test_cubic_grows_toward_wmax () =
  let cc = Tcp.Cong_avoid.cubic () in
  let m = float_of_int mss in
  (* Establish an epoch with W_max = 100 segments. *)
  let _, after_loss =
    cc.Tcp.Cong_avoid.on_loss ~cwnd:(100. *. m) ~flight:(100 * mss) ~mss
      ~now:Sim.Time.zero
  in
  let cwnd = ref after_loss in
  let srtt = Some (Sim.Time.ms 60) in
  for i = 1 to 2000 do
    let now = Sim.Time.ms (i * 10) in
    cwnd :=
      cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:!cwnd ~mss ~srtt ~min_rtt:None ~now
  done;
  (* After 20 s the cubic curve has recovered past the old maximum. *)
  Alcotest.(check bool) "recovers toward W_max" true (!cwnd > 95. *. m);
  Alcotest.(check bool) "keeps probing beyond" true (!cwnd > 100. *. m)

let test_cubic_reset () =
  let cc = Tcp.Cong_avoid.cubic () in
  let m = float_of_int mss in
  ignore
    (cc.Tcp.Cong_avoid.on_loss ~cwnd:(100. *. m) ~flight:(100 * mss) ~mss
       ~now:Sim.Time.zero);
  cc.Tcp.Cong_avoid.reset ();
  (* After reset, growth restarts from a fresh epoch without blowing up. *)
  let next =
    cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:(10. *. m) ~mss
      ~srtt:(Some (Sim.Time.ms 60)) ~min_rtt:None ~now:(Sim.Time.sec 5)
  in
  Alcotest.(check bool) "sane growth" true (next >= 10. *. m && next < 20. *. m)

let test_names () =
  Alcotest.(check string) "reno" "reno" (Tcp.Cong_avoid.reno ()).Tcp.Cong_avoid.name;
  Alcotest.(check string) "cubic" "cubic"
    (Tcp.Cong_avoid.cubic ()).Tcp.Cong_avoid.name

let test_vegas_backlog_regulation () =
  let cc = Tcp.Cong_avoid.vegas () in
  let m = float_of_int mss in
  let base_rtt = Some (Sim.Time.ms 60) in
  (* Backlog 0 (rtt = base): grow. *)
  let grown =
    cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:(100. *. m) ~mss
      ~srtt:(Some (Sim.Time.ms 60)) ~min_rtt:base_rtt ~now:(Sim.Time.sec 1)
  in
  Alcotest.(check (float 1e-6)) "grows below alpha" (101. *. m) grown;
  (* Large backlog: cwnd 100 seg, rtt 90 vs base 60 → backlog ≈ 33 seg. *)
  let cc2 = Tcp.Cong_avoid.vegas () in
  let shrunk =
    cc2.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:(100. *. m) ~mss
      ~srtt:(Some (Sim.Time.ms 90)) ~min_rtt:base_rtt ~now:(Sim.Time.sec 1)
  in
  Alcotest.(check (float 1e-6)) "shrinks above beta" (99. *. m) shrunk;
  (* In the dead band (backlog = 3 with alpha 2, beta 4): hold. *)
  let cc3 = Tcp.Cong_avoid.vegas () in
  let held =
    cc3.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:(100. *. m) ~mss
      ~srtt:(Some (Sim.Time.of_sec 0.0618557))
      ~min_rtt:base_rtt ~now:(Sim.Time.sec 1)
  in
  Alcotest.(check (float 1e-6)) "holds in dead band" (100. *. m) held

let test_vegas_once_per_rtt () =
  let cc = Tcp.Cong_avoid.vegas () in
  let m = float_of_int mss in
  let ack now cwnd =
    cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd ~mss
      ~srtt:(Some (Sim.Time.ms 60))
      ~min_rtt:(Some (Sim.Time.ms 60))
      ~now
  in
  let w1 = ack (Sim.Time.ms 100) (100. *. m) in
  (* Second ACK 10 ms later: inside the same RTT, no further change. *)
  let w2 = ack (Sim.Time.ms 110) w1 in
  Alcotest.(check (float 1e-6)) "one adjustment per RTT" w1 w2;
  let w3 = ack (Sim.Time.ms 170) w2 in
  Alcotest.(check (float 1e-6)) "adjusts next RTT" (w2 +. m) w3

let test_vegas_fallback_without_rtt () =
  let cc = Tcp.Cong_avoid.vegas () in
  let m = float_of_int mss in
  let next =
    cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:(10. *. m) ~mss
      ~srtt:None ~min_rtt:None ~now:Sim.Time.zero
  in
  Alcotest.(check (float 1e-6)) "reno-like without estimates"
    ((10. *. m) +. (m /. 10.))
    next

let qcheck_reno_monotone =
  QCheck.Test.make ~name:"reno on_ack strictly increases cwnd" ~count:200
    QCheck.(int_range 2 10_000)
    (fun segs ->
      let cc = Tcp.Cong_avoid.reno () in
      let cwnd = float_of_int (segs * mss) in
      cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd ~mss ~srtt:None
        ~min_rtt:None ~now:Sim.Time.zero
      > cwnd)

let test_on_round_presence () =
  let has (cc : Tcp.Cong_avoid.t) = Option.is_some cc.Tcp.Cong_avoid.on_round in
  List.iter
    (fun (cc, expected) ->
      Alcotest.(check bool) cc.Tcp.Cong_avoid.name expected (has cc))
    [
      (Tcp.Cong_avoid.reno (), true);
      (Tcp.Cong_avoid.relentless (), true);
      (Tcp.Cong_avoid.small_rtt (), true);
      (Tcp.Cong_avoid.cubic (), false);
      (Tcp.Cong_avoid.vegas (), false);
      (Tcp.Cong_avoid.fast (), false);
    ]

(* The per-round rule against its reference, for every registered
   policy that offers one. [fold] over n distinct rows scattered in a
   NaN-filled column must leave each row's slot bit for bit at the
   window its [acks] folds of [on_ack] reach, and every other slot NaN
   (the rows and acks arrays run past n, so a read beyond it would
   write a slot). n runs 0..13, so the empty call, the four-lane groups
   and the rows left after them all run, and the acks are log-uniform
   in 1..5,000, so a group's lanes end up to three orders of magnitude
   apart. [cut] must leave the window [on_loss] returns for a window
   wholly in flight — and that window must be [on_loss]'s ssthresh too,
   which the many-flows engine copies from it. srtt spans 0.1-100 ms,
   both sides of small-rtt's 25 ms reference. *)
let qcheck_on_round_bitwise =
  let column = 40 in
  let gen =
    QCheck2.Gen.(
      let* rows =
        list_size (int_range 0 13)
          (pair (float_range 2. 1e5)
             (map (fun u -> int_of_float (5000. ** u)) (float_range 0. 1.)))
      in
      let* slots = shuffle_a (Array.init column Fun.id) in
      let* mss = oneofl [ 536; 1448; 1460; 1500 ] in
      let+ srtt_us = int_range 100 100_000 in
      (Array.of_list rows, slots, mss, srtt_us))
  in
  let print (rows, slots, mss, srtt_us) =
    Printf.sprintf "mss %d, srtt %d us, rows [%s]" mss srtt_us
      (String.concat "; "
         (List.mapi
            (fun j (segs, k) -> Printf.sprintf "%d: %h segs, %d acks" slots.(j) segs k)
            (Array.to_list rows)))
  in
  QCheck2.Test.make ~name:"on_round = k folds of on_ack, bit for bit"
    ~count:200 ~print gen
    (fun (specs, slots, mss, srtt_us) ->
      let srtt = Sim.Time.us srtt_us in
      let n = Array.length specs in
      let acks = Array.init column (fun j -> if j < n then snd specs.(j) else 7) in
      let cong_avoid name =
        match Tcp.Policy.by_name name with
        | Ok p -> p.Tcp.Policy.cong_avoid
        | Error e -> failwith e
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      List.for_all
        (fun name ->
          let cc = cong_avoid name in
          match cc.Tcp.Cong_avoid.on_round with
          | None -> true
          | Some { Tcp.Cong_avoid.fold; cut } ->
              let window (segs, _) = segs *. float_of_int mss in
              let on_acks (segs, k) =
                let folded = ref (window (segs, k)) in
                for _ = 1 to k do
                  folded :=
                    cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:!folded
                      ~mss ~srtt:(Some srtt) ~min_rtt:(Some srtt)
                      ~now:Sim.Time.zero
                done;
                !folded
              in
              let w = Array.make column nan and want = Array.make column nan in
              Array.iteri
                (fun j spec ->
                  w.(slots.(j)) <- window spec;
                  want.(slots.(j)) <- on_acks spec)
                specs;
              fold w slots acks n ~mss ~srtt;
              Array.for_all2 same want w
              && Array.for_all
                   (fun spec ->
                     let cwnd = window spec in
                     let ssthresh, after_loss =
                       cc.Tcp.Cong_avoid.on_loss ~cwnd
                         ~flight:(int_of_float cwnd) ~mss ~now:Sim.Time.zero
                     in
                     (* The row sits mid-column, as in the engine's table. *)
                     let c = [| nan; cwnd; nan |] in
                     cut c 1 ~mss;
                     same after_loss c.(1) && same ssthresh c.(1))
                   specs)
        Tcp.Policy.names)

let suite =
  [
    Alcotest.test_case "reno additive increase" `Quick
      test_reno_additive_increase;
    Alcotest.test_case "reno halves on loss" `Quick test_reno_halves_on_loss;
    Alcotest.test_case "reno floor" `Quick test_reno_floor;
    Alcotest.test_case "reno RTO" `Quick test_reno_rto;
    Alcotest.test_case "cubic beta decrease" `Quick test_cubic_beta_decrease;
    Alcotest.test_case "cubic growth toward W_max" `Quick
      test_cubic_grows_toward_wmax;
    Alcotest.test_case "cubic reset" `Quick test_cubic_reset;
    Alcotest.test_case "algorithm names" `Quick test_names;
    Alcotest.test_case "vegas backlog regulation" `Quick
      test_vegas_backlog_regulation;
    Alcotest.test_case "vegas once per RTT" `Quick test_vegas_once_per_rtt;
    Alcotest.test_case "vegas fallback" `Quick test_vegas_fallback_without_rtt;
    QCheck_alcotest.to_alcotest qcheck_reno_monotone;
    Alcotest.test_case "on_round only for stateless rules" `Quick
      test_on_round_presence;
    QCheck_alcotest.to_alcotest qcheck_on_round_bitwise;
  ]
