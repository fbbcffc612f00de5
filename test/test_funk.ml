(* Funk lifecycle tests: the refcounted pin/retire discipline that
   lets readers keep using a replaced funk until they drain (each funk
   backs exactly one chunk; splits never share one); plus manifest and
   chunk-index unit tests. *)

open Evendb_util
open Evendb_storage
open Evendb_core

let e ?(version = 0) ?(counter = 0) ?value key : Kv_iter.entry = { key; value; version; counter }

let mk env ?(id = 1) entries =
  Funk.create_from_iter env ~block_bytes:512 ~id ~min_key:"" (Kv_iter.of_list entries)

let visible _ = true

let create_and_read () =
  let env = Env.memory () in
  let f = mk env [ e ~version:1 ~value:"v" "k" ] in
  Alcotest.(check string) "min key" "" (Funk.min_key f);
  (match Funk.get_from_sst f ~visible ~max_version:max_int "k" with
  | Some { Kv_iter.value = Some "v"; _ } -> ()
  | _ -> Alcotest.fail "sst read failed");
  (* Appends land in the log and shadow the sstable. *)
  ignore (Funk.append f (e ~version:5 ~counter:1 ~value:"newer" "k"));
  (match Funk.get_from_log f ~visible ~max_version:max_int "k" with
  | Some { Kv_iter.value = Some "newer"; _ } -> ()
  | _ -> Alcotest.fail "log read failed");
  let all = Kv_iter.to_list (Funk.all_entries f ~visible) in
  Alcotest.(check int) "merged versions" 2 (List.length all);
  Alcotest.(check int) "newest first" 5 (List.hd all).Kv_iter.version

let retire_deletes_files () =
  let env = Env.memory () in
  let f = mk env [ e ~value:"v" "k" ] in
  Alcotest.(check bool) "files exist" true (Env.exists env (Layout.sst_name 1));
  Funk.retire f;
  Alcotest.(check bool) "sst deleted" false (Env.exists env (Layout.sst_name 1));
  Alcotest.(check bool) "log deleted" false (Env.exists env (Layout.log_name 1))

let pinned_funk_survives_retire () =
  let env = Env.memory () in
  let f = mk env [ e ~value:"v" "k" ] in
  Alcotest.(check bool) "pin acquired" true (Funk.acquire f);
  Funk.retire f;
  (* Still pinned: files stay readable. *)
  Alcotest.(check bool) "files survive while pinned" true (Env.exists env (Layout.sst_name 1));
  (match Funk.get_from_sst f ~visible ~max_version:max_int "k" with
  | Some _ -> ()
  | None -> Alcotest.fail "pinned read failed");
  Funk.release f;
  Alcotest.(check bool) "deleted after release" false (Env.exists env (Layout.sst_name 1))

let acquire_after_retire_fails () =
  let env = Env.memory () in
  let f = mk env [ e ~value:"v" "k" ] in
  Funk.retire f;
  Alcotest.(check bool) "no pin after retire" false (Funk.acquire f)

(* A pin attempt on a funk whose last reference is gone must not revive
   it: the release that follows would run the file deletion a second
   time, hitting whatever now lives under the funk's names. *)
let acquire_does_not_revive () =
  let env = Env.memory () in
  let f = mk env [ e ~value:"v" "k" ] in
  Funk.retire f;
  let file = Env.create env (Layout.log_name 1) in
  Env.close_file file;
  Alcotest.(check bool) "no pin after release" false (Funk.acquire f);
  Alcotest.(check bool) "files deleted once" true (Env.exists env (Layout.log_name 1))

let with_pin_raises_stale () =
  let env = Env.memory () in
  let f = mk env [ e ~value:"v" "k" ] in
  Funk.retire f;
  (try
     Funk.with_pin ~current:(fun () -> f) (fun _ -> ());
     Alcotest.fail "expected Stale"
   with Funk.Stale -> ())

let with_pin_follows_flip () =
  let env = Env.memory () in
  let old_funk = mk env ~id:1 [ e ~value:"old" "k" ] in
  let new_funk = mk env ~id:2 [ e ~value:"new" "k" ] in
  let current = Atomic.make old_funk in
  Funk.retire old_funk;
  Atomic.set current new_funk;
  let v =
    Funk.with_pin
      ~current:(fun () -> Atomic.get current)
      (fun f ->
        match Funk.get_from_sst f ~visible ~max_version:max_int "k" with
        | Some { Kv_iter.value = Some v; _ } -> v
        | _ -> "?")
  in
  Alcotest.(check string) "pin found replacement" "new" v

let log_segment_reads () =
  let env = Env.memory () in
  let f = mk env [] in
  let off1 = Funk.append f (e ~version:1 ~value:"a" "k") in
  let off2 = Funk.append f (e ~version:2 ~counter:1 ~value:"b" "k") in
  ignore (Funk.append f (e ~version:3 ~counter:2 ~value:"c" "k"));
  (* Restricting to the first record's range finds only version 1. *)
  (match
     Funk.get_from_log f ~segments:[ (off1, off2) ] ~visible ~max_version:max_int "k"
   with
  | Some found -> Alcotest.(check int) "bounded segment" 1 found.Kv_iter.version
  | None -> Alcotest.fail "segment read failed");
  (* Newest-first segment list returns the newest hit. *)
  match
    Funk.get_from_log f
      ~segments:[ (off2, max_int); (off1, off2) ]
      ~visible ~max_version:max_int "k"
  with
  | Some found -> Alcotest.(check int) "newest segment wins" 3 found.Kv_iter.version
  | None -> Alcotest.fail "segmented read failed"

let visibility_filter () =
  let env = Env.memory () in
  let f = mk env [] in
  ignore (Funk.append f (e ~version:10 ~value:"hidden" "k"));
  ignore (Funk.append f (e ~version:5 ~counter:1 ~value:"shown" "k"));
  let vis v = v <= 5 in
  (match Funk.get_from_log f ~visible:vis ~max_version:max_int "k" with
  | Some { Kv_iter.value = Some "shown"; _ } -> ()
  | _ -> Alcotest.fail "visibility filter leaked");
  Alcotest.(check int) "all_entries filtered" 1
    (List.length (Kv_iter.to_list (Funk.all_entries f ~visible:vis)))

(* ---- Manifest ---- *)

let manifest_roundtrip () =
  let env = Env.memory () in
  Alcotest.(check bool) "fresh = none" true (Manifest.load env = None);
  Manifest.store env { Manifest.next_id = 42; live = [ 3; 1; 7 ] };
  (match Manifest.load env with
  | Some m ->
    Alcotest.(check int) "next id" 42 m.Manifest.next_id;
    Alcotest.(check (list int)) "live ids" [ 1; 3; 7 ] (List.sort compare m.Manifest.live)
  | None -> Alcotest.fail "manifest lost");
  (* Overwrite is atomic replace. *)
  Manifest.store env { Manifest.next_id = 43; live = [ 9 ] };
  match Manifest.load env with
  | Some m -> Alcotest.(check (list int)) "replaced" [ 9 ] m.Manifest.live
  | None -> Alcotest.fail "manifest lost"

let manifest_corruption () =
  let env = Env.memory () in
  let f = Env.create env Manifest.file_name in
  Env.append f "garbage data here";
  Env.close_file f;
  try
    ignore (Manifest.load env);
    Alcotest.fail "expected corruption error"
  with Env.Corruption _ ->
    Alcotest.(check bool) "detection counted" true (Env.corruptions_detected env > 0)

(* ---- Chunk index ---- *)

let mk_chunk env ~id ~min_key =
  let funk =
    Funk.create_from_iter env ~block_bytes:512 ~id:(100 + id) ~min_key (Kv_iter.of_list [])
  in
  Chunk.create ~id ~min_key ~funk ~munk:None

let index_find () =
  let env = Env.memory () in
  let a = mk_chunk env ~id:0 ~min_key:"" in
  let b = mk_chunk env ~id:1 ~min_key:"m" in
  let c = mk_chunk env ~id:2 ~min_key:"t" in
  Chunk.set_next a (Some b);
  Chunk.set_next b (Some c);
  let idx = Chunk_index.build [ a; b; c ] in
  Alcotest.(check int) "size" 3 (Chunk_index.size idx);
  Alcotest.(check int) "below m" 0 (Chunk.id (Chunk_index.find idx "a"));
  Alcotest.(check int) "exactly m" 1 (Chunk.id (Chunk_index.find idx "m"));
  Alcotest.(check int) "inside m-t" 1 (Chunk.id (Chunk_index.find idx "p"));
  Alcotest.(check int) "beyond t" 2 (Chunk.id (Chunk_index.find idx "zz"));
  Alcotest.(check int) "empty key" 0 (Chunk.id (Chunk_index.find idx ""));
  let idx2 = Chunk_index.of_first_chunk a in
  Alcotest.(check int) "walked size" 3 (Chunk_index.size idx2)

let index_validation () =
  let env = Env.memory () in
  let b = mk_chunk env ~id:1 ~min_key:"m" in
  (try
     ignore (Chunk_index.build [ b ]);
     Alcotest.fail "expected missing-sentinel error"
   with Invalid_argument _ -> ());
  let a = mk_chunk env ~id:0 ~min_key:"" in
  let dup = mk_chunk env ~id:2 ~min_key:"m" in
  try
    ignore (Chunk_index.build [ a; b; dup ]);
    Alcotest.fail "expected unsorted error"
  with Invalid_argument _ -> ()

let chunk_covers () =
  let env = Env.memory () in
  let a = mk_chunk env ~id:0 ~min_key:"" in
  let b = mk_chunk env ~id:1 ~min_key:"m" in
  Chunk.set_next a (Some b);
  Alcotest.(check bool) "a covers below m" true (Chunk.covers a ~key:"h");
  Alcotest.(check bool) "a stops at m" false (Chunk.covers a ~key:"m");
  Alcotest.(check bool) "b covers m" true (Chunk.covers b ~key:"m");
  Alcotest.(check bool) "last chunk open-ended" true (Chunk.covers b ~key:"zzzz")

let chunk_counter_monotone () =
  let env = Env.memory () in
  let a = mk_chunk env ~id:0 ~min_key:"" in
  let c0 = Chunk.next_counter a in
  let c1 = Chunk.next_counter a in
  Alcotest.(check bool) "monotone" true (c1 > c0);
  let inherited =
    Chunk.create_inheriting ~id:9 ~min_key:"x" ~funk:(Chunk.funk a) ~munk:None
      ~counter:(Chunk.counter_base a) ~freq:(Chunk.freq a)
  in
  Alcotest.(check bool) "child continues" true (Chunk.next_counter inherited > c1)

(* A memory backend that counts every size query, existence check and
   read of the file [name]. *)
let touching name =
  let touches = ref 0 in
  let (Backend.B (module M)) = Backend.memory () in
  let module Touching = struct
    include M

    let note n = if n = name then incr touches
    let size n = note n; M.size n
    let exists n = note n; M.exists n
    let read_at n ~off ~len = note n; M.read_at n ~off ~len
    let pread n ~off ~len = note n; M.pread n ~off ~len
  end in
  (Env.of_backend (Backend.B (module Touching)), touches)

(* A cold read of a funk whose log is empty answers from the writer's
   position alone; once the log holds a record, the same reads go to
   the file and find it. *)
let empty_log_not_touched () =
  let env, touches = touching (Layout.log_name 1) in
  let f = mk env [ e ~version:1 ~value:"sst" "k" ] in
  touches := 0;
  Alcotest.(check bool) "get: nothing" true
    (Funk.get_from_log f ~visible ~max_version:max_int "k" = None);
  Alcotest.(check bool) "get in segments: nothing" true
    (Funk.get_from_log f ~segments:[ (0, max_int) ] ~visible ~max_version:max_int "k" = None);
  Alcotest.(check int) "range: nothing" 0
    (List.length (Funk.log_entries_in_range f ~visible ~low:"" ~high:"z"));
  Alcotest.(check int) "the empty log was never touched" 0 !touches;
  ignore (Funk.append f (e ~version:2 ~value:"log" "k"));
  Alcotest.(check (option string)) "get finds the record" (Some "log")
    (Option.bind (Funk.get_from_log f ~visible ~max_version:max_int "k") (fun x -> x.Kv_iter.value));
  Alcotest.(check int) "range finds the record" 1
    (List.length (Funk.log_entries_in_range f ~visible ~low:"" ~high:"z"));
  Alcotest.(check bool) "a non-empty log is read" true (!touches > 0)

let suite =
  [
    ( "funk",
      [
        Alcotest.test_case "create and read paths" `Quick create_and_read;
        Alcotest.test_case "retire deletes files" `Quick retire_deletes_files;
        Alcotest.test_case "pin defers deletion" `Quick pinned_funk_survives_retire;
        Alcotest.test_case "acquire after retire" `Quick acquire_after_retire_fails;
        Alcotest.test_case "acquire does not revive" `Quick acquire_does_not_revive;
        Alcotest.test_case "with_pin raises Stale" `Quick with_pin_raises_stale;
        Alcotest.test_case "with_pin follows flips" `Quick with_pin_follows_flip;
        Alcotest.test_case "bounded log segments" `Quick log_segment_reads;
        Alcotest.test_case "visibility filter" `Quick visibility_filter;
        Alcotest.test_case "empty log is not touched" `Quick empty_log_not_touched;
      ] );
    ( "manifest",
      [
        Alcotest.test_case "roundtrip" `Quick manifest_roundtrip;
        Alcotest.test_case "corruption rejected" `Quick manifest_corruption;
      ] );
    ( "chunk_index",
      [
        Alcotest.test_case "find" `Quick index_find;
        Alcotest.test_case "validation" `Quick index_validation;
        Alcotest.test_case "covers" `Quick chunk_covers;
        Alcotest.test_case "counters inherit" `Quick chunk_counter_monotone;
      ] );
  ]
