(* Funk-log / WAL framing tests: roundtrips, torn-tail tolerance,
   corruption detection, range-bounded folds. *)

open Evendb_util
open Evendb_storage
open Evendb_log

let qtest = QCheck_alcotest.to_alcotest

let entry ?(version = 1) ?(counter = 0) ?value key : Kv_iter.entry =
  { key; value; version; counter }

let roundtrip () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "t.log" in
  let written =
    [
      entry ~value:"v1" "alpha";
      entry ~version:7 ~counter:3 ~value:"" "beta" (* empty value *);
      entry ~version:9 "gamma" (* tombstone *);
    ]
  in
  let offsets = List.map (Log_file.Writer.append w) written in
  Alcotest.(check int) "first offset" 0 (List.hd offsets);
  let read = Log_file.Reader.entries env "t.log" in
  Alcotest.(check int) "record count" 3 (List.length read);
  List.iter2
    (fun (off_expected, (e : Kv_iter.entry)) (off, (e' : Kv_iter.entry)) ->
      Alcotest.(check int) "offset" off_expected off;
      Alcotest.(check string) "key" e.key e'.key;
      Alcotest.(check (option string)) "value" e.value e'.value;
      Alcotest.(check int) "version" e.version e'.version;
      Alcotest.(check int) "counter" e.counter e'.counter)
    (List.combine offsets written)
    read

let random_roundtrip =
  QCheck.Test.make ~name:"log roundtrip (random entries)" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 1 50)
        (triple (string_of_size Gen.(int_range 0 32)) (option string) small_nat))
    (fun records ->
      let env = Env.memory () in
      let w = Log_file.Writer.create env "r.log" in
      let written =
        List.map (fun (k, v, ver) -> entry ~version:ver ?value:v k) records
      in
      List.iter (fun e -> ignore (Log_file.Writer.append w e)) written;
      let read = List.map snd (Log_file.Reader.entries env "r.log") in
      read = written)

(* The record format written out from its spec, one byte at a time:
   [masked crc32c of payload : 4B LE] [payload_len : LEB128] [payload],
   payload = [op] [klen] [key] [version] [counter] and, for puts,
   [vlen] [value]. *)
let reference_record (e : Kv_iter.entry) =
  let leb buf n =
    let rec go n =
      if n < 0x80 then Buffer.add_char buf (Char.chr n)
      else begin
        Buffer.add_char buf (Char.chr (n land 0x7f lor 0x80));
        go (n lsr 7)
      end
    in
    go n
  in
  let payload = Buffer.create 64 in
  Buffer.add_char payload (if e.value = None then '\001' else '\000');
  leb payload (String.length e.key);
  Buffer.add_string payload e.key;
  leb payload e.version;
  leb payload e.counter;
  Option.iter
    (fun v ->
      leb payload (String.length v);
      Buffer.add_string payload v)
    e.value;
  let payload = Buffer.contents payload in
  let crc = Int32.to_int (Crc32c.mask (Crc32c.string payload)) in
  let out = Buffer.create (String.length payload + 9) in
  for i = 0 to 3 do
    Buffer.add_char out (Char.chr ((crc lsr (8 * i)) land 0xff))
  done;
  leb out (String.length payload);
  Buffer.add_string out payload;
  Buffer.contents out

let encoder_matches_reference =
  (* Strings empty, short, and long enough for 2- and 3-byte length
     varints; ints of every varint width from 1 to 9 bytes. *)
  let str =
    QCheck.Gen.(
      frequency
        [
          (1, return "");
          (3, string_size (int_range 1 40));
          (1, string_size (int_range 128 600));
          (1, string_size (int_range 16_384 17_000));
        ])
  in
  let width_int = QCheck.Gen.(int_range 0 62 >>= fun bits -> int_range 0 ((1 lsl bits) - 1)) in
  let entry_gen =
    QCheck.Gen.(
      map
        (fun (key, value, version, counter) : Kv_iter.entry -> { key; value; version; counter })
        (quad str (opt str) width_int width_int))
  in
  let print (e : Kv_iter.entry) =
    Printf.sprintf "key %d B, value %s, version %d, counter %d" (String.length e.key)
      (match e.value with None -> "delete" | Some v -> string_of_int (String.length v) ^ " B")
      e.version e.counter
  in
  QCheck.Test.make ~name:"encoder matches a reference encoder" ~count:200
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range 1 8) entry_gen))
    (fun entries ->
      let env = Env.memory () in
      let w = Log_file.Writer.create env "enc.log" in
      List.iter (fun e -> ignore (Log_file.Writer.append w e)) entries;
      let expected = String.concat "" (List.map reference_record entries) in
      List.for_all
        (fun e ->
          let b = Bytes.create (Log_file.Record.size e) in
          let n = Log_file.Record.encode b e in
          n = Bytes.length b && Bytes.to_string b = reference_record e)
        entries
      && Env.read_all env "enc.log" = expected)

let torn_tail () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "torn.log" in
  ignore (Log_file.Writer.append w (entry ~value:"ok" "a"));
  Log_file.Writer.fsync w;
  ignore (Log_file.Writer.append w (entry ~value:"lost" "b"));
  (* Crash: the unsynced second record tears away. *)
  Env.crash env;
  let read = Log_file.Reader.entries env "torn.log" in
  Alcotest.(check int) "only synced record" 1 (List.length read);
  Alcotest.(check string) "survivor" "a" (snd (List.hd read)).Kv_iter.key;
  (* Appending after recovery resumes from the valid prefix. *)
  let w2 = Log_file.Writer.open_append env "torn.log" in
  ignore (Log_file.Writer.append w2 (entry ~value:"new" "c"));
  let read = Log_file.Reader.entries env "torn.log" in
  Alcotest.(check (list string)) "records after resume" [ "a"; "c" ]
    (List.map (fun (_, (e : Kv_iter.entry)) -> e.key) read)

let corrupt_middle_skipped () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "c.log" in
  ignore (Log_file.Writer.append w (entry ~value:"1" "a"));
  let off2 = Log_file.Writer.append w (entry ~value:"2" "b") in
  ignore (Log_file.Writer.append w (entry ~value:"3" "c"));
  (* Flip a byte inside record 2 by rewriting the file. *)
  let data = Bytes.of_string (Env.read_all env "c.log") in
  Bytes.set data (off2 + 6) '\xff';
  let f = Env.create env "c.log" in
  Env.append f (Bytes.to_string data);
  Env.close_file f;
  (* The reader resynchronizes past the corrupt record: only the
     damaged record is lost, not everything after it. *)
  let read = List.map (fun (_, (e : Kv_iter.entry)) -> e.key) (Log_file.Reader.entries env "c.log") in
  Alcotest.(check (list string)) "corrupt record skipped" [ "a"; "c" ] read;
  Alcotest.(check int) "valid prefix" off2 (Log_file.Reader.valid_prefix_length env "c.log")

let garbage_suffix_recovered () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "g.log" in
  ignore (Log_file.Writer.append w (entry ~value:"1" "a"));
  ignore (Log_file.Writer.append w (entry ~value:"2" "b"));
  Log_file.Writer.close w;
  (* A torn append leaves a garbage suffix (a partial record). *)
  let f = Env.open_append env "g.log" in
  Env.append f "\x0d\xf0\xad\x8b torn partial record";
  Env.close_file f;
  let read = List.map (fun (_, (e : Kv_iter.entry)) -> e.key) (Log_file.Reader.entries env "g.log") in
  Alcotest.(check (list string)) "garbage tail ignored" [ "a"; "b" ] read;
  (* Appends resume after the garbage; replay resyncs past it. *)
  let w2 = Log_file.Writer.open_append env "g.log" in
  ignore (Log_file.Writer.append w2 (entry ~value:"3" "c"));
  let read = List.map (fun (_, (e : Kv_iter.entry)) -> e.key) (Log_file.Reader.entries env "g.log") in
  Alcotest.(check (list string)) "resync past garbage" [ "a"; "b"; "c" ] read

let range_fold () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "rg.log" in
  let offsets =
    List.map
      (fun i -> Log_file.Writer.append w (entry ~version:i ~value:(string_of_int i) "k"))
      [ 0; 1; 2; 3; 4 ]
  in
  let from2 = List.nth offsets 2 in
  let versions =
    List.rev
      (Log_file.Reader.fold ~lo:from2 env "rg.log" ~init:[] ~f:(fun acc _ e ->
           e.Kv_iter.version :: acc))
  in
  Alcotest.(check (list int)) "fold from offset" [ 2; 3; 4 ] versions;
  let hi = List.nth offsets 4 in
  let versions =
    List.rev
      (Log_file.Reader.fold ~lo:from2 ~hi env "rg.log" ~init:[] ~f:(fun acc _ e ->
           e.Kv_iter.version :: acc))
  in
  Alcotest.(check (list int)) "bounded fold" [ 2; 3 ] versions

let missing_file_is_empty () =
  let env = Env.memory () in
  Alcotest.(check int) "no records" 0 (List.length (Log_file.Reader.entries env "ghost.log"));
  Alcotest.(check int) "no prefix" 0 (Log_file.Reader.valid_prefix_length env "ghost.log")

let size_tracks_appends () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "sz.log" in
  Alcotest.(check int) "empty" 0 (Log_file.Writer.size w);
  ignore (Log_file.Writer.append w (entry ~value:"xyz" "k"));
  Alcotest.(check int) "size matches file" (Env.size env "sz.log") (Log_file.Writer.size w)

let concurrent_writers () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "mt.log" in
  let threads =
    List.init 4 (fun t ->
        Thread.create
          (fun () ->
            for i = 1 to 250 do
              ignore
                (Log_file.Writer.append w (entry ~version:((t * 1000) + i) ~value:"v" "k"))
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all records intact" 1000
    (List.length (Log_file.Reader.entries env "mt.log"))

let suite =
  [
    ( "log_file",
      [
        Alcotest.test_case "roundtrip" `Quick roundtrip;
        Alcotest.test_case "torn tail tolerated" `Quick torn_tail;
        Alcotest.test_case "corruption skipped by resync" `Quick corrupt_middle_skipped;
        Alcotest.test_case "garbage suffix recovered" `Quick garbage_suffix_recovered;
        Alcotest.test_case "range folds" `Quick range_fold;
        Alcotest.test_case "missing file = empty" `Quick missing_file_is_empty;
        Alcotest.test_case "size tracking" `Quick size_tracks_appends;
        Alcotest.test_case "concurrent writers" `Quick concurrent_writers;
        qtest random_roundtrip;
        qtest encoder_matches_reference;
      ] );
  ]

(* ---- Additional edge cases ---- *)

let empty_key_and_value () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "e.log" in
  ignore (Log_file.Writer.append w (entry ~value:"" ""));
  ignore (Log_file.Writer.append w (entry ""));
  let read = List.map snd (Log_file.Reader.entries env "e.log") in
  Alcotest.(check int) "both records" 2 (List.length read);
  Alcotest.(check (option string)) "empty value" (Some "") (List.hd read).Kv_iter.value;
  Alcotest.(check (option string)) "tombstone" None (List.nth read 1).Kv_iter.value

let large_record () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "big.log" in
  let v = String.make 1_000_000 'x' in
  ignore (Log_file.Writer.append w (entry ~value:v "big"));
  match Log_file.Reader.entries env "big.log" with
  | [ (_, e) ] -> Alcotest.(check int) "megabyte value" 1_000_000
      (String.length (Option.get e.Kv_iter.value))
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let fold_beyond_end () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "fb.log" in
  ignore (Log_file.Writer.append w (entry ~value:"v" "k"));
  let n = Log_file.Reader.fold ~lo:10_000 env "fb.log" ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "empty when lo beyond end" 0 n

let version_counter_extremes () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "x.log" in
  let big = entry ~version:max_int ~counter:max_int ~value:"v" "k" in
  ignore (Log_file.Writer.append w big);
  match Log_file.Reader.entries env "x.log" with
  | [ (_, e) ] ->
    Alcotest.(check int) "max version" max_int e.Kv_iter.version;
    Alcotest.(check int) "max counter" max_int e.Kv_iter.counter
  | _ -> Alcotest.fail "record lost"

let suite =
  suite
  @ [
      ( "log_edges",
        [
          Alcotest.test_case "empty key/value" `Quick empty_key_and_value;
          Alcotest.test_case "megabyte record" `Quick large_record;
          Alcotest.test_case "fold beyond end" `Quick fold_beyond_end;
          Alcotest.test_case "extreme version/counter" `Quick version_counter_extremes;
        ] );
    ]
