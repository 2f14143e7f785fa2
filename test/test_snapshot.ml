(* The snapshot container: bit-exact round trips for every section
   kind, digest-verified framing that refuses any single-byte
   corruption, and the save/rotate/rename durability protocol that
   always leaves one verified-complete image on disk. *)

module Snap = Sim.Snapshot

let tmp_counter = ref 0

let tmp_path name =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rss_snap_test_%d_%d_%s" (Unix.getpid ()) !tmp_counter
       name)

let full_writer () =
  let w = Snap.writer () in
  Snap.put_int w "int" (-42);
  Snap.put_int w "int.max" max_int;
  Snap.put_i64 w "i64" 0x1234_5678_9abc_def0L;
  Snap.put_float w "float" 0.1;
  Snap.put_float w "float.nan" Float.nan;
  Snap.put_int_array w "ints" [| min_int; -1; 0; 1; max_int |];
  Snap.put_float_array w "floats" [| 0.; -0.; Float.infinity; 1e-300 |];
  Snap.put_bytes w "bytes" "ab\x00\xffzy";
  Snap.put_bytes w "empty" "";
  w

let check_full_reader r =
  Alcotest.(check int) "int" (-42) (Snap.get_int r "int");
  Alcotest.(check int) "int.max" max_int (Snap.get_int r "int.max");
  Alcotest.(check int64) "i64" 0x1234_5678_9abc_def0L (Snap.get_i64 r "i64");
  Alcotest.(check (float 0.)) "float" 0.1 (Snap.get_float r "float");
  Alcotest.(check bool) "nan round-trips" true
    (Float.is_nan (Snap.get_float r "float.nan"));
  Alcotest.(check (array int)) "int array"
    [| min_int; -1; 0; 1; max_int |]
    (Snap.get_int_array r "ints");
  Alcotest.(check bool) "float array bit-exact" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       [| 0.; -0.; Float.infinity; 1e-300 |]
       (Snap.get_float_array r "floats"));
  Alcotest.(check string) "bytes" "ab\x00\xffzy" (Snap.get_bytes r "bytes");
  Alcotest.(check string) "empty bytes" "" (Snap.get_bytes r "empty")

let test_round_trip () =
  check_full_reader (Snap.of_string (Snap.to_string (full_writer ())))

let test_missing_and_mistyped () =
  let r = Snap.of_string (Snap.to_string (full_writer ())) in
  Alcotest.(check bool) "missing section raises Corrupt" true
    (match Snap.get_int r "nope" with
    | _ -> false
    | exception Snap.Corrupt _ -> true);
  Alcotest.(check bool) "kind mismatch raises Corrupt" true
    (match Snap.get_float r "int" with
    | _ -> false
    | exception Snap.Corrupt _ -> true)

let test_last_write_wins () =
  let w = Snap.writer () in
  Snap.put_int w "x" 1;
  Snap.put_int w "x" 2;
  let r = Snap.of_string (Snap.to_string w) in
  Alcotest.(check int) "last value" 2 (Snap.get_int r "x")

let test_any_byte_flip_detected () =
  (* The digest covers the whole body, and the trailer is part of the
     comparison, so flipping any byte of the image must be refused. *)
  let image = Snap.to_string (full_writer ()) in
  for i = 0 to String.length image - 1 do
    let b = Bytes.of_string image in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match Snap.of_string (Bytes.to_string b) with
    | _ -> Alcotest.failf "flip at offset %d accepted" i
    | exception Snap.Corrupt _ -> ()
  done

let test_truncation_detected () =
  let image = Snap.to_string (full_writer ()) in
  List.iter
    (fun len ->
      match Snap.of_string (String.sub image 0 len) with
      | _ -> Alcotest.failf "truncation to %d bytes accepted" len
      | exception Snap.Corrupt _ -> ())
    [ 0; 4; 8; String.length image / 2; String.length image - 1 ]

(* A digest-valid image whose one int-array section claims 2^59
   elements over 8 payload bytes. Scaled to bytes, that length wraps
   the native int; the reader must refuse it as [Corrupt], which [load]
   answers by falling back to [.prev], not fail on a stray index. *)
let test_oversized_length_corrupt () =
  let b = Buffer.create 64 in
  Buffer.add_string b "RSSSNAP\001";
  Buffer.add_int64_le b 1L;
  Buffer.add_uint8 b 1;
  Buffer.add_string b "x";
  Buffer.add_uint8 b 2;
  Buffer.add_int64_le b (Int64.shift_left 1L 59);
  Buffer.add_int64_le b 0L;
  let body = Buffer.contents b in
  match Snap.of_string (body ^ Digest.string body) with
  | _ -> Alcotest.fail "an image claiming 2^59 elements was accepted"
  | exception Snap.Corrupt _ -> ()

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_save_rotates_prev () =
  let path = tmp_path "rotate.snap" in
  let w1 = Snap.writer () in
  Snap.put_int w1 "gen" 1;
  Snap.save w1 ~path;
  let w2 = Snap.writer () in
  Snap.put_int w2 "gen" 2;
  Snap.save w2 ~path;
  Alcotest.(check int) "current image" 2
    (Snap.get_int (Snap.load ~path) "gen");
  Alcotest.(check int) "previous image rotated" 1
    (Snap.get_int (Snap.of_string (read_file (path ^ ".prev"))) "gen");
  Sys.remove path;
  Sys.remove (path ^ ".prev")

let test_load_falls_back_to_prev () =
  let path = tmp_path "fallback.snap" in
  let w1 = Snap.writer () in
  Snap.put_int w1 "gen" 1;
  Snap.save w1 ~path;
  let w2 = Snap.writer () in
  Snap.put_int w2 "gen" 2;
  Snap.save w2 ~path;
  (* corrupt the current image; load must hand back generation 1 *)
  let image = read_file path in
  write_file path (String.sub image 0 (String.length image - 3));
  Alcotest.(check int) "fell back to .prev" 1
    (Snap.get_int (Snap.load ~path) "gen");
  (* with .prev gone too, load must refuse *)
  Sys.remove (path ^ ".prev");
  Alcotest.(check bool) "no good image raises Corrupt" true
    (match Snap.load ~path with
    | _ -> false
    | exception Snap.Corrupt _ -> true);
  Sys.remove path

let test_rng_state_round_trip () =
  let rng = Sim.Rng.of_seed 99 in
  for _ = 1 to 17 do
    ignore (Sim.Rng.float rng)
  done;
  let state = Sim.Rng.state rng in
  let expect = List.init 8 (fun _ -> Sim.Rng.float rng) in
  let rng' = Sim.Rng.of_seed 1 in
  Sim.Rng.set_state rng' state;
  Alcotest.(check (list (float 0.)))
    "restored stream continues identically" expect
    (List.init 8 (fun _ -> Sim.Rng.float rng'))

(* The bytes of an image are pinned, not only its round trip: images
   written by one build must restore in another, so a change to the
   writer must leave every byte where it was. The second image is what a
   checkpointing run writes at its first 1 s boundary, for a spec whose
   2,000 persistent flows all launch at t = 0. *)
let md5_hex s = Digest.to_hex (Digest.string s)

let test_image_bytes_pinned () =
  Alcotest.(check string) "every section kind"
    "93c8f97e375d287a8fa8febccb6c4688"
    (md5_hex (Snap.to_string (full_writer ())))

let persistent_spec =
  {
    Core.Spec.default with
    name = "snapshot-pin";
    seed = 8;
    duration = Sim.Time.of_sec 2.;
    sample_period = Sim.Time.ms 250;
    topology =
      Core.Spec.Duplex
        {
          Core.Spec.default_duplex with
          rate = Sim.Units.mbps 1000.;
          one_way_delay = Sim.Time.ms 5;
          ifq_capacity = 500;
        };
    flows =
      [
        {
          Core.Spec.default_flow with
          label = Some "crowd";
          workload =
            Core.Spec.Many_flows
              {
                flows = 2_000;
                arrival_rate = None;
                arrival_pareto_shape = None;
                mean_size = None;
                size_pareto_shape = 1.2;
              };
        };
      ];
  }

let test_checkpoint_image_pinned () =
  let path = tmp_path "pin.snap" in
  let checkpoint =
    {
      Core.Spec.snapshot_path = path;
      interval = Sim.Time.of_sec 1.;
      should_stop = (fun () -> true);
    }
  in
  (match Core.Spec.run ~checkpoint persistent_spec with
  | _ -> Alcotest.fail "expected a drain at 1 s"
  | exception Core.Spec.Drained { at; _ } ->
      Alcotest.(check (float 0.)) "drained at 1 s" 1. (Sim.Time.to_sec at));
  let image = read_file path in
  Sys.remove path;
  Alcotest.(check string) "the 1 s image of 2,000 persistent flows"
    "c4731170c794a9a663a48d862314f216" (md5_hex image)

(* --- property: random section sets round-trip bit-exactly ------------- *)

type section =
  | S_int of int
  | S_i64 of int64
  | S_float of float
  | S_ints of int array
  | S_floats of float array
  | S_bytes of string

let section_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> S_int i) int;
        map (fun i -> S_i64 (Int64.of_int i)) int;
        map (fun f -> S_float f) float;
        map (fun l -> S_ints (Array.of_list l)) (list_size (int_bound 40) int);
        map
          (fun l -> S_floats (Array.of_list l))
          (list_size (int_bound 40) float);
        map (fun s -> S_bytes s) (string_size (int_bound 60));
      ])

let sections_gen =
  QCheck.Gen.(
    list_size (int_range 1 20) section_gen
    >|= List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)))

let sections_arb =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d sections>" (List.length l))
    sections_gen

let put w (name, s) =
  match s with
  | S_int v -> Snap.put_int w name v
  | S_i64 v -> Snap.put_i64 w name v
  | S_float v -> Snap.put_float w name v
  | S_ints v -> Snap.put_int_array w name v
  | S_floats v -> Snap.put_float_array w name v
  | S_bytes v -> Snap.put_bytes w name v

let eq_back r (name, s) =
  match s with
  | S_int v -> Snap.get_int r name = v
  | S_i64 v -> Int64.equal (Snap.get_i64 r name) v
  | S_float v ->
      Int64.equal
        (Int64.bits_of_float (Snap.get_float r name))
        (Int64.bits_of_float v)
  | S_ints v -> Snap.get_int_array r name = v
  | S_floats v ->
      let got = Snap.get_float_array r name in
      Array.length got = Array.length v
      && Array.for_all2
           (fun a b ->
             Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           got v
  | S_bytes v -> String.equal (Snap.get_bytes r name) v

let prop_round_trip =
  QCheck.Test.make ~count:200 ~name:"random sections round-trip bit-exactly"
    sections_arb (fun sections ->
      let w = Snap.writer () in
      List.iter (put w) sections;
      let r = Snap.of_string (Snap.to_string w) in
      List.for_all (eq_back r) sections)

let suite =
  [
    Alcotest.test_case "round trip, every kind" `Quick test_round_trip;
    Alcotest.test_case "missing / mistyped sections" `Quick
      test_missing_and_mistyped;
    Alcotest.test_case "last write wins" `Quick test_last_write_wins;
    Alcotest.test_case "any byte flip detected" `Quick
      test_any_byte_flip_detected;
    Alcotest.test_case "truncation detected" `Quick test_truncation_detected;
    Alcotest.test_case "save rotates .prev" `Quick test_save_rotates_prev;
    Alcotest.test_case "load falls back to .prev" `Quick
      test_load_falls_back_to_prev;
    Alcotest.test_case "rng state round trip" `Quick test_rng_state_round_trip;
    QCheck_alcotest.to_alcotest prop_round_trip;
    Alcotest.test_case "image bytes pinned" `Quick test_image_bytes_pinned;
    Alcotest.test_case "checkpoint image bytes pinned" `Quick
      test_checkpoint_image_pinned;
    Alcotest.test_case "oversized section length is Corrupt" `Quick
      test_oversized_length_corrupt;
  ]
