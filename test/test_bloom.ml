(* Bloom filter tests: the no-false-negative invariant (a correctness
   requirement — a false negative would lose data on the read path),
   false-positive bounds, serialization, and the partitioned variant's
   segment accounting. *)

open Evendb_bloom

let qtest = QCheck_alcotest.to_alcotest
let kernel_prop_count = Test_util.kernel_prop_count

let no_false_negatives =
  QCheck.Test.make ~name:"bloom: no false negatives" ~count:(kernel_prop_count ~default:100)
    QCheck.(list_of_size Gen.(int_range 1 200) (string_of_size Gen.(int_range 1 16)))
    (fun keys ->
      let b = Bloom.create (List.length keys) in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let false_positive_rate () =
  let n = 2000 in
  let b = Bloom.create ~bits_per_key:10 n in
  for i = 0 to n - 1 do
    Bloom.add b (Printf.sprintf "present%08d" i)
  done;
  let fp = ref 0 in
  let probes = 10_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "absent%08d" i) then incr fp
  done;
  let rate = float_of_int !fp /. float_of_int probes in
  (* 10 bits/key gives ~1%; allow generous slack. *)
  Alcotest.(check bool) (Printf.sprintf "fp rate %.4f < 0.05" rate) true (rate < 0.05)

let serialization_roundtrip =
  QCheck.Test.make ~name:"bloom: serialize/deserialize" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 50) (string_of_size Gen.(int_range 1 8)))
    (fun keys ->
      let b = Bloom.create (List.length keys) in
      List.iter (Bloom.add b) keys;
      let b' = Bloom.deserialize (Bloom.serialize b) in
      List.for_all (Bloom.mem b') keys)

let deserialize_garbage () =
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "Bloom.deserialize: malformed input") (fun () ->
      ignore (Bloom.deserialize "not a bloom filter"))

let empty_filter () =
  let b = Bloom.create 10 in
  Alcotest.(check bool) "nothing present" false (Bloom.mem b "anything");
  Alcotest.(check (float 0.0001)) "no bits set" 0.0 (Bloom.fill_ratio b)

(* ---- Probe sequence: the serialized bits are the on-disk format ---- *)

(* The 64-bit probe sequence the native-int loop replaced: FNV-1a, a
   remix as the second hash, probe [i] at [h1 + i * h2] summed in
   [Int64]. Kept as the reference for the bits a filter sets. *)
let ref_probes ~nbits ~k key =
  let h1 = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h1 := Int64.mul (Int64.logxor !h1 (Int64.of_int (Char.code c))) 0x100000001b3L)
    key;
  let remix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
    Int64.logxor z (Int64.shift_right_logical z 33)
  in
  let h2 = remix !h1 in
  List.init k (fun i -> Int64.to_int (Int64.add !h1 (Int64.mul (Int64.of_int i) h2)) land max_int mod nbits)

let header ~nbits ~k =
  let buf = Buffer.create 8 in
  Evendb_util.Varint.write buf nbits;
  Evendb_util.Varint.write buf k;
  Buffer.contents buf

let probe_input =
  QCheck.(
    quad (int_range 1 30) (int_range 8 4096)
      (list_of_size Gen.(int_range 0 100) (string_of_size Gen.(int_range 0 24)))
      (list_of_size Gen.(int_range 0 50) (string_of_size Gen.(int_range 0 24))))

let probes_match_reference =
  QCheck.Test.make ~name:"bloom: bits and answers match the Int64 probe reference"
    ~count:(kernel_prop_count ~default:200) probe_input (fun (k, nbytes, keys, queries) ->
      let nbits = nbytes * 8 in
      let b = Bloom.deserialize (header ~nbits ~k ^ String.make nbytes '\000') in
      List.iter (Bloom.add b) keys;
      let bits = Bytes.make nbytes '\000' in
      let bit i = Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0 in
      List.iter
        (fun key ->
          List.iter
            (fun i ->
              Bytes.set bits (i lsr 3) (Char.chr (Char.code (Bytes.get bits (i lsr 3)) lor (1 lsl (i land 7)))))
            (ref_probes ~nbits ~k key))
        keys;
      Bloom.serialize b = header ~nbits ~k ^ Bytes.to_string bits
      && List.for_all (Bloom.mem b) keys
      && List.for_all
           (fun q -> Bloom.mem b q = List.for_all bit (ref_probes ~nbits ~k q)
                     && Bloom.mem_hash b (Bloom.hash q) = Bloom.mem b q)
           (keys @ queries))

(* ---- Partitioned bloom ---- *)

let partitioned_segments () =
  let p = Partitioned_bloom.create ~segment_bytes:100 ~expected_keys_per_segment:16 () in
  (* Three segments worth of appends. *)
  for i = 0 to 29 do
    Partitioned_bloom.add p ~key:(Printf.sprintf "k%02d" i) ~log_offset:(i * 10)
  done;
  Alcotest.(check int) "segment count" 3 (Partitioned_bloom.segment_count p);
  (* A key in the first segment: its byte range must cover its offset. *)
  let segs = Partitioned_bloom.segments_maybe_containing p "k03" in
  Alcotest.(check bool) "found somewhere" true (segs <> []);
  Alcotest.(check bool) "covers offset 30" true
    (List.exists (fun (lo, hi) -> lo <= 30 && 30 < hi) segs)

let partitioned_no_false_negative =
  QCheck.Test.make ~name:"partitioned bloom: no false negatives" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (string_of_size Gen.(int_range 1 12)))
    (fun keys ->
      let p = Partitioned_bloom.create ~segment_bytes:64 ~expected_keys_per_segment:8 () in
      List.iteri (fun i k -> Partitioned_bloom.add p ~key:k ~log_offset:(i * 16)) keys;
      List.for_all
        (fun k ->
          Partitioned_bloom.may_contain p k
          && Partitioned_bloom.segments_maybe_containing p k <> [])
        keys)

let partitioned_ranges_newest_first () =
  let p = Partitioned_bloom.create ~segment_bytes:50 ~expected_keys_per_segment:8 () in
  (* Same key in two segments: ranges must come newest first. *)
  Partitioned_bloom.add p ~key:"dup" ~log_offset:0;
  for i = 1 to 9 do
    Partitioned_bloom.add p ~key:(Printf.sprintf "pad%d" i) ~log_offset:(i * 10)
  done;
  Partitioned_bloom.add p ~key:"dup" ~log_offset:100;
  let segs = Partitioned_bloom.segments_maybe_containing p "dup" in
  Alcotest.(check bool) "at least two segments" true (List.length segs >= 2);
  (match segs with
  | (lo1, _) :: (lo2, _) :: _ ->
    Alcotest.(check bool) "newest first" true (lo1 > lo2)
  | _ -> Alcotest.fail "expected 2+ segments");
  (* Tail segment is open-ended. *)
  match segs with
  | (_, hi) :: _ -> Alcotest.(check int) "open tail" max_int hi
  | [] -> Alcotest.fail "no segments"

let partitioned_absent_key () =
  let p = Partitioned_bloom.create ~segment_bytes:100 ~expected_keys_per_segment:8 () in
  for i = 0 to 19 do
    Partitioned_bloom.add p ~key:(Printf.sprintf "key%04d" i) ~log_offset:(i * 20)
  done;
  (* Probing many absent keys: most must return no segments (the
     point of the filter: bounding log searches). *)
  let hits = ref 0 in
  for i = 0 to 999 do
    if Partitioned_bloom.segments_maybe_containing p (Printf.sprintf "no%06d" i) <> [] then
      incr hits
  done;
  Alcotest.(check bool) "few false positives" true (!hits < 100)

(* Per-segment model of a partitioned filter: the same rotation rule,
   one plain Bloom.t per segment, each queried with [Bloom.mem]. *)
let segments_match_per_segment_mem =
  QCheck.Test.make ~name:"partitioned bloom: ranges match a per-segment Bloom.mem fold"
    ~count:(kernel_prop_count ~default:100)
    QCheck.(
      triple (int_range 16 256)
        (list_of_size Gen.(int_range 1 150) (pair (string_of_size Gen.(int_range 1 12)) (int_range 1 40)))
        (list_of_size Gen.(int_range 1 50) (string_of_size Gen.(int_range 1 12))))
    (fun (segment_bytes, appends, queries) ->
      let p = Partitioned_bloom.create ~segment_bytes ~expected_keys_per_segment:8 () in
      let model = ref [] (* (filter, start, end ref), newest first *) and off = ref 0 in
      List.iter
        (fun (key, size) ->
          Partitioned_bloom.add p ~key ~log_offset:!off;
          (match !model with
          | (_, start, _) :: _ when !off - start < segment_bytes -> ()
          | rest ->
            (match rest with (_, _, stop) :: _ -> stop := !off | [] -> ());
            model := (Bloom.create 16, !off, ref max_int) :: rest);
          (match !model with (f, _, _) :: _ -> Bloom.add f key | [] -> assert false);
          off := !off + size)
        appends;
      List.for_all
        (fun q ->
          let expected =
            List.filter_map (fun (f, start, stop) -> if Bloom.mem f q then Some (start, !stop) else None) !model
          in
          Partitioned_bloom.segments_maybe_containing p q = expected
          && Partitioned_bloom.may_contain p q = (expected <> []))
        (queries @ List.map fst appends))

let suite =
  [
    ( "bloom",
      [
        qtest no_false_negatives;
        Alcotest.test_case "false-positive rate" `Quick false_positive_rate;
        qtest serialization_roundtrip;
        Alcotest.test_case "garbage rejected" `Quick deserialize_garbage;
        Alcotest.test_case "empty filter" `Quick empty_filter;
        qtest probes_match_reference;
      ] );
    ( "partitioned_bloom",
      [
        Alcotest.test_case "segment rotation" `Quick partitioned_segments;
        Alcotest.test_case "ranges newest first, open tail" `Quick partitioned_ranges_newest_first;
        Alcotest.test_case "absent keys mostly filtered" `Quick partitioned_absent_key;
        qtest partitioned_no_false_negative;
        qtest segments_match_per_segment_mem;
      ] );
  ]
