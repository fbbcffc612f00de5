(* SSTable tests: build/read roundtrips, block splitting, versioned
   lookups, seeks, bloom section, header min-key, corruption checks. *)

open Evendb_util
open Evendb_storage
open Evendb_sstable

let qtest = QCheck_alcotest.to_alcotest

let e ?(version = 0) ?(counter = 0) ?value key : Kv_iter.entry = { key; value; version; counter }

let build env ?(name = "t.sst") ?(block_size = 4096) ?(with_bloom = false) ?(min_key = "") entries =
  let b = Sstable.Builder.create env ~block_size ~with_bloom ~name ~min_key () in
  List.iter (Sstable.Builder.add b) entries;
  Sstable.Builder.finish b;
  Sstable.Reader.open_ env name

let basic_roundtrip () =
  let env = Env.memory () in
  let entries = List.init 100 (fun i -> e ~version:i ~value:(Printf.sprintf "v%d" i) (Printf.sprintf "key%03d" i)) in
  let r = build env entries in
  Alcotest.(check int) "entry count" 100 (Sstable.Reader.entry_count r);
  Alcotest.(check (option string)) "first" (Some "key000") (Sstable.Reader.first_key r);
  Alcotest.(check (option string)) "last" (Some "key099") (Sstable.Reader.last_key r);
  List.iter
    (fun (x : Kv_iter.entry) ->
      match Sstable.Reader.get r x.key with
      | Some found ->
        Alcotest.(check (option string)) ("value of " ^ x.key) x.value found.Kv_iter.value
      | None -> Alcotest.failf "missing %s" x.key)
    entries;
  Alcotest.(check bool) "absent key" true (Sstable.Reader.get r "zzz" = None);
  Alcotest.(check bool) "below range" true (Sstable.Reader.get r "aaa" = None)

let small_blocks () =
  (* Force many blocks and verify lookups still work. *)
  let env = Env.memory () in
  let entries =
    List.init 500 (fun i -> e ~value:(String.make 50 'x') (Printf.sprintf "key%05d" i))
  in
  let r = build env ~block_size:128 entries in
  Alcotest.(check int) "count" 500 (Sstable.Reader.entry_count r);
  List.iter
    (fun i ->
      let k = Printf.sprintf "key%05d" i in
      if Sstable.Reader.get r k = None then Alcotest.failf "missing %s" k)
    [ 0; 1; 123; 250; 499 ]

let versioned_lookup () =
  let env = Env.memory () in
  let entries =
    [
      e ~version:9 ~counter:1 ~value:"v9" "k";
      e ~version:5 ~counter:0 ~value:"v5" "k";
      e ~version:2 ~counter:0 "k" (* old tombstone *);
    ]
  in
  let r = build env entries in
  Alcotest.(check (option string)) "latest" (Some "v9")
    (Option.bind (Sstable.Reader.get r "k") (fun x -> x.Kv_iter.value));
  Alcotest.(check (option string)) "at version 6" (Some "v5")
    (Option.bind (Sstable.Reader.get r ~max_version:6 "k") (fun x -> x.Kv_iter.value));
  (match Sstable.Reader.get r ~max_version:3 "k" with
  | Some { Kv_iter.value = None; version = 2; _ } -> ()
  | _ -> Alcotest.fail "expected tombstone at version 3");
  Alcotest.(check bool) "below all versions" true (Sstable.Reader.get r ~max_version:1 "k" = None);
  Alcotest.(check int) "all versions" 3 (List.length (Sstable.Reader.get_all_versions r "k"))

let versions_span_block_boundary () =
  (* Many versions of one key with tiny blocks: the builder must keep
     them in one block so versioned gets see all of them. *)
  let env = Env.memory () in
  let versions = List.init 50 (fun i -> e ~version:(49 - i) ~value:(string_of_int (49 - i)) "hot") in
  let entries = versions @ [ e ~version:0 ~value:"z" "later" ] in
  let r = build env ~block_size:64 entries in
  List.iter
    (fun v ->
      match Sstable.Reader.get r ~max_version:v "hot" with
      | Some found -> Alcotest.(check int) "exact version" v found.Kv_iter.version
      | None -> Alcotest.failf "missing version %d" v)
    [ 0; 7; 25; 49 ]

let iteration_order () =
  let env = Env.memory () in
  let entries = List.init 64 (fun i -> e ~value:"v" (Printf.sprintf "k%04d" (i * 3))) in
  let r = build env ~block_size:256 entries in
  let keys = List.map (fun (x : Kv_iter.entry) -> x.key) (Kv_iter.to_list (Sstable.Reader.iter r)) in
  Alcotest.(check (list string)) "full scan order"
    (List.map (fun (x : Kv_iter.entry) -> x.key) entries)
    keys

let seek () =
  let env = Env.memory () in
  let entries = List.init 100 (fun i -> e ~value:"v" (Printf.sprintf "k%04d" (i * 2))) in
  let r = build env ~block_size:256 entries in
  (* Seek to a present key. *)
  let it = Sstable.Reader.iter_from r "k0100" in
  (match it () with
  | Some x -> Alcotest.(check string) "exact seek" "k0100" x.Kv_iter.key
  | None -> Alcotest.fail "seek failed");
  (* Seek between keys lands on the next one. *)
  let it = Sstable.Reader.iter_from r "k0101" in
  (match it () with
  | Some x -> Alcotest.(check string) "between seek" "k0102" x.Kv_iter.key
  | None -> Alcotest.fail "seek failed");
  (* Seek before the first key. *)
  let it = Sstable.Reader.iter_from r "" in
  (match it () with
  | Some x -> Alcotest.(check string) "seek to start" "k0000" x.Kv_iter.key
  | None -> Alcotest.fail "seek failed");
  (* Seek past the end. *)
  let it = Sstable.Reader.iter_from r "zzz" in
  Alcotest.(check bool) "past end" true (it () = None)

(* [iter_from] yields exactly the entries at or above the target, from
   wherever in the table they start: several versions per key, small
   blocks, and every key, every gap between keys, the start and the
   end as targets. *)
let iter_from_position () =
  let env = Env.memory () in
  let entries =
    List.concat
      (List.init 80 (fun i ->
           List.init ((i mod 3) + 1) (fun v ->
               e ~version:(10 - v) ~value:(String.make 20 'v') (Printf.sprintf "k%04d" (i * 2)))))
  in
  let r = build env ~block_size:128 entries in
  let targets =
    "" :: "zzz"
    :: List.concat_map (fun (x : Kv_iter.entry) -> [ x.key; x.key ^ "\x00" ]) entries
  in
  List.iter
    (fun target ->
      let want = List.filter (fun (x : Kv_iter.entry) -> String.compare x.key target >= 0) entries in
      Alcotest.(check (list string))
        ("entries from " ^ String.escaped target)
        (List.map (fun (x : Kv_iter.entry) -> Printf.sprintf "%s@%d" x.key x.version) want)
        (List.map
           (fun (x : Kv_iter.entry) -> Printf.sprintf "%s@%d" x.key x.version)
           (Kv_iter.to_list (Sstable.Reader.iter_from r target))))
    targets;
  let empty = build env ~name:"e.sst" [] in
  Alcotest.(check bool) "empty table iter" true (Sstable.Reader.iter_from empty "k" () = None)

let empty_table () =
  let env = Env.memory () in
  let r = build env [] in
  Alcotest.(check int) "count" 0 (Sstable.Reader.entry_count r);
  Alcotest.(check bool) "no first" true (Sstable.Reader.first_key r = None);
  Alcotest.(check bool) "get misses" true (Sstable.Reader.get r "x" = None);
  Alcotest.(check bool) "iter empty" true (Sstable.Reader.iter r () = None)

let min_key_header () =
  let env = Env.memory () in
  let r = build env ~min_key:"chunk-start" [ e ~value:"v" "x" ] in
  Alcotest.(check string) "chunk min key" "chunk-start" (Sstable.Reader.chunk_min_key r)

let bloom_section () =
  let env = Env.memory () in
  let entries = List.init 50 (fun i -> e ~value:"v" (Printf.sprintf "k%03d" i)) in
  let r = build env ~with_bloom:true entries in
  List.iter
    (fun (x : Kv_iter.entry) ->
      Alcotest.(check bool) ("may contain " ^ x.key) true (Sstable.Reader.may_contain r x.key))
    entries;
  let without = build env ~name:"nb.sst" entries in
  Alcotest.(check bool) "no bloom = always true" true (Sstable.Reader.may_contain without "zzz")

let out_of_order_rejected () =
  let env = Env.memory () in
  let b = Sstable.Builder.create env ~name:"o.sst" ~min_key:"" () in
  Sstable.Builder.add b (e ~value:"v" "b");
  (try
     Sstable.Builder.add b (e ~value:"v" "a");
     Alcotest.fail "expected out-of-order rejection"
   with Invalid_argument _ -> ())

let corrupt_footer_rejected () =
  let env = Env.memory () in
  ignore (build env ~name:"bad.sst" [ e ~value:"v" "k" ]);
  let data = Env.read_all env "bad.sst" in
  let f = Env.create env "bad.sst" in
  Env.append f (String.sub data 0 (String.length data - 3));
  Env.append f "XXX";
  Env.close_file f;
  (try
     ignore (Sstable.Reader.open_ env "bad.sst");
     Alcotest.fail "expected corruption rejection"
   with Env.Corruption _ -> ());
  Alcotest.(check bool) "detection counted" true (Env.corruptions_detected env > 0)

let random_model =
  QCheck.Test.make ~name:"sstable get matches model" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_range 0 200) small_nat))
    (fun pairs ->
      let entries =
        List.sort_uniq Kv_iter.compare_entries
          (List.map (fun (k, v) -> e ~version:v ~value:(string_of_int v) (Printf.sprintf "k%04d" k)) pairs)
      in
      let env = Env.memory () in
      let r = build env ~block_size:128 entries in
      List.for_all
        (fun (x : Kv_iter.entry) ->
          (* get at x's version must return the newest version <= it. *)
          let expected =
            List.fold_left
              (fun best (y : Kv_iter.entry) ->
                if String.equal y.key x.key && y.version <= x.version then
                  match best with
                  | Some (b : Kv_iter.entry) when b.version >= y.version -> best
                  | _ -> Some y
                else best)
              None entries
          in
          match (Sstable.Reader.get r ~max_version:x.version x.key, expected) with
          | Some found, Some want -> found.Kv_iter.version = want.version
          | None, None -> true
          | _ -> false)
        entries)

let suite =
  [
    ( "sstable",
      [
        Alcotest.test_case "roundtrip" `Quick basic_roundtrip;
        Alcotest.test_case "small blocks" `Quick small_blocks;
        Alcotest.test_case "versioned lookup" `Quick versioned_lookup;
        Alcotest.test_case "versions stay in one block" `Quick versions_span_block_boundary;
        Alcotest.test_case "iteration order" `Quick iteration_order;
        Alcotest.test_case "seek" `Quick seek;
        Alcotest.test_case "iter_from position" `Quick iter_from_position;
        Alcotest.test_case "empty table" `Quick empty_table;
        Alcotest.test_case "min key header" `Quick min_key_header;
        Alcotest.test_case "bloom section" `Quick bloom_section;
        Alcotest.test_case "out-of-order rejected" `Quick out_of_order_rejected;
        Alcotest.test_case "corrupt footer rejected" `Quick corrupt_footer_rejected;
        qtest random_model;
      ] );
  ]

(* ---- Additional edge cases ---- *)

let binary_keys () =
  (* Keys containing NUL, 0xFF and other raw bytes must order and
     round-trip byte-exactly. *)
  let env = Env.memory () in
  let keys = [ "\x00"; "\x00\x01"; "a\x00b"; "a\x7f"; "\xfe"; "\xff\xff" ] in
  let sorted = List.sort String.compare keys in
  let entries = List.map (fun k -> e ~value:("v" ^ k) k) sorted in
  let r = build env entries in
  List.iter
    (fun k ->
      match Sstable.Reader.get r k with
      | Some found -> Alcotest.(check (option string)) "binary value" (Some ("v" ^ k)) found.Kv_iter.value
      | None -> Alcotest.failf "missing binary key %S" k)
    keys

let single_entry () =
  let env = Env.memory () in
  let r = build env [ e ~version:3 ~value:"only" "solo" ] in
  Alcotest.(check int) "count" 1 (Sstable.Reader.entry_count r);
  Alcotest.(check (option string)) "first=last" (Sstable.Reader.first_key r) (Sstable.Reader.last_key r);
  Alcotest.(check bool) "get works" true (Sstable.Reader.get r "solo" <> None)

let large_values () =
  let env = Env.memory () in
  let big = String.make 100_000 'B' in
  let r = build env ~block_size:4096 [ e ~value:big "huge"; e ~value:"s" "tiny" ] in
  (match Sstable.Reader.get r "huge" with
  | Some { Kv_iter.value = Some v; _ } -> Alcotest.(check int) "big value intact" 100_000 (String.length v)
  | _ -> Alcotest.fail "big value lost");
  Alcotest.(check bool) "neighbour fine" true (Sstable.Reader.get r "tiny" <> None)

let pathological_block_size () =
  (* block_size 1: every key in its own block; index still works. *)
  let env = Env.memory () in
  let entries = List.init 50 (fun i -> e ~value:"v" (Printf.sprintf "k%03d" i)) in
  let r = build env ~block_size:1 entries in
  Alcotest.(check int) "count" 50 (Sstable.Reader.entry_count r);
  List.iter
    (fun (x : Kv_iter.entry) ->
      if Sstable.Reader.get r x.key = None then Alcotest.failf "missing %s" x.key)
    entries

let reopen_same_file () =
  (* Multiple independent readers of one immutable table. *)
  let env = Env.memory () in
  ignore (build env ~name:"shared.sst" [ e ~value:"v" "k" ]);
  let r1 = Sstable.Reader.open_ env "shared.sst" in
  let r2 = Sstable.Reader.open_ env "shared.sst" in
  Alcotest.(check bool) "both read" true
    (Sstable.Reader.get r1 "k" <> None && Sstable.Reader.get r2 "k" <> None)

let suite =
  suite
  @ [
      ( "sstable_edges",
        [
          Alcotest.test_case "binary keys" `Quick binary_keys;
          Alcotest.test_case "single entry" `Quick single_entry;
          Alcotest.test_case "large values" `Quick large_values;
          Alcotest.test_case "block size 1" `Quick pathological_block_size;
          Alcotest.test_case "multiple readers" `Quick reopen_same_file;
        ] );
    ]
