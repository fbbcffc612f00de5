(* Storage environment tests: both backends, plus the memory backend's
   crash semantics that the recovery tests build on. *)

open Evendb_storage

let with_disk_env f =
  let dir = Filename.temp_file "evendb_test" "" in
  Sys.remove dir;
  let env = Env.disk dir in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun name -> try Env.delete env name with _ -> ()) (Env.list_files env);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f env)

let both_backends name f =
  [
    Alcotest.test_case (name ^ " (memory)") `Quick (fun () -> f (Env.memory ()));
    Alcotest.test_case (name ^ " (disk)") `Quick (fun () -> with_disk_env f);
  ]

let append_read env =
  let file = Env.create env "a.dat" in
  Env.append file "hello ";
  Env.append file "world";
  Env.flush file;
  Alcotest.(check int) "file_size" 11 (Env.file_size file);
  Alcotest.(check int) "size" 11 (Env.size env "a.dat");
  Alcotest.(check string) "read_all" "hello world" (Env.read_all env "a.dat");
  Alcotest.(check string) "read_at" "world" (Env.read_at env "a.dat" ~off:6 ~len:5);
  Env.close_file file

let reopen_append env =
  let f1 = Env.create env "b.dat" in
  Env.append f1 "one";
  Env.close_file f1;
  let f2 = Env.open_append env "b.dat" in
  Alcotest.(check int) "resume position" 3 (Env.file_size f2);
  Env.append f2 "two";
  Env.close_file f2;
  Alcotest.(check string) "appended" "onetwo" (Env.read_all env "b.dat")

let rename_delete env =
  let f = Env.create env "old.dat" in
  Env.append f "data";
  Env.close_file f;
  Env.rename env ~old_name:"old.dat" ~new_name:"new.dat";
  Alcotest.(check bool) "old gone" false (Env.exists env "old.dat");
  Alcotest.(check string) "content moved" "data" (Env.read_all env "new.dat");
  Env.delete env "new.dat";
  Alcotest.(check bool) "deleted" false (Env.exists env "new.dat");
  (* Deleting a missing file is a no-op. *)
  Env.delete env "new.dat"

let read_out_of_range env =
  let f = Env.create env "c.dat" in
  Env.append f "abc";
  Env.close_file f;
  Alcotest.check_raises "beyond end" (Invalid_argument "Env.read_at: range beyond end of file")
    (fun () -> ignore (Env.read_at env "c.dat" ~off:1 ~len:5))

let missing_file env =
  Alcotest.(check bool) "exists" false (Env.exists env "nope");
  (try
     ignore (Env.size env "nope");
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

let list_and_space env =
  let f1 = Env.create env "x1" and f2 = Env.create env "x2" in
  Env.append f1 "12345";
  Env.append f2 "123";
  Env.close_file f1;
  Env.close_file f2;
  let files = List.sort compare (Env.list_files env) in
  Alcotest.(check (list string)) "files" [ "x1"; "x2" ] files;
  Alcotest.(check int) "space" 8 (Env.space_used env)

let stats_accounting env =
  Io_stats.reset (Env.stats env);
  let f = Env.create env "s.dat" in
  Env.append f "0123456789";
  Env.fsync f;
  ignore (Env.read_at env "s.dat" ~off:0 ~len:4);
  Env.close_file f;
  let s = Io_stats.snapshot (Env.stats env) in
  Alcotest.(check int) "bytes written" 10 s.Io_stats.bytes_written;
  Alcotest.(check int) "bytes read" 4 s.Io_stats.bytes_read;
  Alcotest.(check bool) "fsync counted" true (s.Io_stats.fsyncs >= 1)

(* ---- Crash semantics (memory backend only) ---- *)

let crash_discards_unsynced () =
  let env = Env.memory () in
  let f = Env.create env "w.log" in
  Env.append f "durable";
  Env.fsync f;
  Env.append f "-volatile";
  Env.crash env;
  Alcotest.(check string) "unsynced suffix dropped" "durable" (Env.read_all env "w.log")

let crash_never_synced () =
  let env = Env.memory () in
  let f = Env.create env "v.log" in
  Env.append f "gone";
  Env.crash env;
  Alcotest.(check int) "empty after crash" 0 (Env.size env "v.log");
  ignore f

let crash_invalidates_handles () =
  let env = Env.memory () in
  let f = Env.create env "h.log" in
  Env.crash env;
  (try
     Env.append f "x";
     Alcotest.fail "expected stale handle failure"
   with Failure _ -> ())

let fsync_all_marks_everything () =
  let env = Env.memory () in
  let f1 = Env.create env "f1" and f2 = Env.create env "f2" in
  Env.append f1 "aaa";
  Env.append f2 "bbb";
  Env.fsync_all env;
  Env.crash env;
  Alcotest.(check string) "f1 survived" "aaa" (Env.read_all env "f1");
  Alcotest.(check string) "f2 survived" "bbb" (Env.read_all env "f2")

let crash_disk_rejected () =
  with_disk_env (fun env ->
      try
        Env.crash env;
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let concurrent_appends () =
  let env = Env.memory () in
  let f = Env.create env "conc" in
  let threads =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 500 do
              Env.append f "xy"
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all appends landed" 4000 (Env.size env "conc")

(* ---- Fault injection middleware ---- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let supports_crash_flag () =
  Alcotest.(check bool) "memory" true (Env.supports_crash (Env.memory ()));
  with_disk_env (fun env -> Alcotest.(check bool) "disk" false (Env.supports_crash env))

let middleware_stacking () =
  let plan = Fault.plan ~seed:7 ~rate:0.5 () in
  let env = Env.memory ~faults:plan () in
  let name = Env.backend_name env in
  Alcotest.(check bool) "counting outermost" true (contains ~sub:"counting" name);
  Alcotest.(check bool) "faulty layer present" true (contains ~sub:"faulty(7:0.5" name);
  Alcotest.(check bool) "memory innermost" true (contains ~sub:"memory" name);
  Alcotest.(check bool) "plain env has no faulty layer" false
    (contains ~sub:"faulty" (Env.backend_name (Env.memory ())))

let typed_error_fields () =
  let plan = Fault.plan ~seed:1 ~rate:1.0 ~torn_fraction:0.0 () in
  let env = Env.memory ~faults:plan () in
  let f = Env.create env "t.log" in
  (try
     Env.append f "hello";
     Alcotest.fail "expected Io_error"
   with Env.Io_error info ->
     Alcotest.(check string) "op" "append" info.Io_error.op;
     Alcotest.(check string) "file" "t.log" info.Io_error.file);
  (* A clean (non-torn) failure writes nothing, and Io_stats never
     counts a failed operation. *)
  Alcotest.(check int) "no bytes landed" 0 (Env.size env "t.log");
  Alcotest.(check int) "failed write not counted" 0
    (Io_stats.snapshot (Env.stats env)).Io_stats.bytes_written;
  Alcotest.(check (list (pair string int))) "counted by kind"
    [ ("append", 1); ("torn", 0); ("fsync", 0); ("rename", 0); ("corrupt", 0) ]
    (Fault.counts plan);
  Fault.set_armed plan false;
  Env.append f "hello";
  Alcotest.(check string) "disarmed plan injects nothing" "hello" (Env.read_all env "t.log");
  Env.close_file f

let torn_append_partial () =
  let plan = Fault.plan ~seed:5 ~rate:1.0 ~torn_fraction:1.0 () in
  let env = Env.memory ~faults:plan () in
  let f = Env.create env "torn.log" in
  (try
     Env.append f "0123456789";
     Alcotest.fail "expected Io_error"
   with Env.Io_error _ -> ());
  Fault.set_armed plan false;
  let n = Env.size env "torn.log" in
  Alcotest.(check bool) "strict prefix landed" true (n > 0 && n < 10);
  Env.close_file f

let deterministic_schedule () =
  let run () =
    let plan = Fault.plan ~seed:42 ~rate:0.3 () in
    let env = Env.memory ~faults:plan () in
    let f = Env.create env "d.log" in
    let failures = ref [] in
    for i = 0 to 199 do
      (try Env.append f (Printf.sprintf "record%04d" i)
       with Env.Io_error _ -> failures := i :: !failures);
      if i mod 10 = 0 then
        try Env.fsync f with Env.Io_error _ -> failures := (1000 + i) :: !failures
    done;
    Env.close_file f;
    (!failures, Fault.injected plan, Env.size env "d.log")
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let _, injected, _ = a in
  Alcotest.(check bool) "schedule fired" true (injected > 0)

let parse_profile_roundtrip () =
  let p = Fault.parse_profile "42:0.01" in
  Alcotest.(check int) "seed" 42 (Fault.seed p);
  Alcotest.(check (float 1e-9)) "rate" 0.01 (Fault.rate p);
  Alcotest.(check string) "roundtrip" "42:0.01" (Fault.profile_string p);
  List.iter
    (fun s ->
      try
        ignore (Fault.parse_profile s);
        Alcotest.failf "expected Invalid_argument for %S" s
      with Invalid_argument _ -> ())
    [ "bogus"; "1:"; ":0.5"; "1:2.0"; "1:-0.1" ]

(* ---- memory backend segments ---- *)

(* Segment boundaries of the memory backend: 256 B doubling to 64 KiB
   (ends at 256, 768, ..., 65280), then every 64 KiB. *)
let boundaries = [ 256; 768; 1792; 32_512; 65_280; 65_280 + 65_536 ]

(* A byte pattern with no period that lines up with a segment. *)
let pattern n = String.init n (fun i -> Char.chr ((i * 7 + (i / 251)) land 0xff))

let segment_crossing_appends () =
  let env = Env.memory () in
  let f = Env.create env "s.dat" in
  let p = pattern 200_000 in
  (* Pieces of 1 B to 70 KB, so some appends end exactly on a boundary,
     some straddle one and one spans several segments at once. *)
  let cuts = [ 0; 200; 256; 300; 767; 769; 1800; 1801; 70_000; 140_000; 200_000 ] in
  let rec go = function
    | a :: (b :: _ as rest) ->
      Env.append f (String.sub p a (b - a));
      go rest
    | _ -> ()
  in
  go cuts;
  Alcotest.(check int) "size" 200_000 (Env.file_size f);
  Alcotest.(check bool) "contents" true (Env.read_all env "s.dat" = p);
  Env.close_file f

let crash_inside_segment () =
  let env = Env.memory () in
  let f = Env.create env "c.dat" in
  let p = pattern 4_000 in
  (* Synced up to 300, inside the second segment; the unsynced suffix
     fills that segment and two more. *)
  Env.append f (String.sub p 0 300);
  Env.fsync f;
  Env.append f (String.sub p 300 2_000);
  Env.crash env;
  Alcotest.(check int) "back to synced" 300 (Env.size env "c.dat");
  let f = Env.open_append env "c.dat" in
  Env.append f (String.sub p 2_300 1_700);
  Alcotest.(check bool)
    "new appends land after the synced prefix" true
    (Env.read_all env "c.dat" = String.sub p 0 300 ^ String.sub p 2_300 1_700);
  Env.close_file f

let reads_span_segments () =
  let env = Env.memory () in
  let f = Env.create env "r.dat" in
  let n = 200_000 in
  let p = pattern n in
  Env.append f p;
  Env.close_file f;
  let ranges =
    List.concat_map
      (fun b -> [ (b - 1, 2); (b - 10, 300); (b, 1); (b - 1, 1) ])
      boundaries
    @ [ (0, n); (0, 0); (100, 100_000); (n - 1, 1); (n, 0) ]
  in
  List.iter
    (fun (off, len) ->
      let expected = String.sub p off len in
      let what = Printf.sprintf "[%d, +%d)" off len in
      Alcotest.(check bool) ("read_at " ^ what) true (Env.read_at env "r.dat" ~off ~len = expected);
      Alcotest.(check bool)
        ("pread " ^ what) true
        (Evendb_util.Bigslice.to_string (Env.pread env "r.dat" ~off ~len) = expected))
    ranges;
  (* pread hands out a private copy: later appends and writes to the
     slice leave the file and each other alone. *)
  let s = Env.pread env "r.dat" ~off:250 ~len:10 in
  Evendb_util.Bigslice.set s 0 'X';
  Alcotest.(check string) "file unchanged" (String.sub p 250 10) (Env.read_at env "r.dat" ~off:250 ~len:10)

let memory_of_files_roundtrip () =
  let files = [ ("empty", ""); ("small", "abc"); ("big", pattern 150_000) ] in
  let env = Env.of_backend (Backend.memory_of_files files) in
  Alcotest.(check (list string))
    "names" [ "big"; "empty"; "small" ]
    (List.sort compare (Env.list_files env));
  List.iter
    (fun (name, contents) ->
      Alcotest.(check int) (name ^ " size") (String.length contents) (Env.size env name);
      Alcotest.(check bool) (name ^ " contents") true (Env.read_all env name = contents))
    files;
  (* Loaded files count as synced: a crash keeps them, and appends to
     one continue from its end. *)
  let f = Env.open_append env "big" in
  Env.append f "tail";
  Env.crash env;
  Alcotest.(check bool) "loaded contents survive a crash" true (Env.read_all env "big" = List.assoc "big" files);
  let copy = Env.of_backend (Backend.memory_of_files (List.map (fun n -> (n, Env.read_all env n)) (Env.list_files env))) in
  List.iter
    (fun (name, contents) -> Alcotest.(check bool) (name ^ " copied") true (Env.read_all copy name = contents))
    files

let suite =
  [
    ( "env",
      both_backends "append/read" append_read
      @ both_backends "reopen append" reopen_append
      @ both_backends "rename/delete" rename_delete
      @ both_backends "read out of range" read_out_of_range
      @ both_backends "missing file" missing_file
      @ both_backends "list/space" list_and_space
      @ both_backends "io stats" stats_accounting );
    ( "crash",
      [
        Alcotest.test_case "drops unsynced suffix" `Quick crash_discards_unsynced;
        Alcotest.test_case "never-synced file empties" `Quick crash_never_synced;
        Alcotest.test_case "invalidates handles" `Quick crash_invalidates_handles;
        Alcotest.test_case "fsync_all makes durable" `Quick fsync_all_marks_everything;
        Alcotest.test_case "disk backend rejects crash" `Quick crash_disk_rejected;
        Alcotest.test_case "concurrent appends" `Quick concurrent_appends;
      ] );
    ( "memory segments",
      [
        Alcotest.test_case "appends cross segment boundaries" `Quick segment_crossing_appends;
        Alcotest.test_case "crash inside a segment, then appends" `Quick crash_inside_segment;
        Alcotest.test_case "read_at and pread span segments" `Quick reads_span_segments;
        Alcotest.test_case "memory_of_files round trip" `Quick memory_of_files_roundtrip;
      ] );
    ( "fault middleware",
      [
        Alcotest.test_case "supports_crash flag" `Quick supports_crash_flag;
        Alcotest.test_case "middleware stacking" `Quick middleware_stacking;
        Alcotest.test_case "typed error fields" `Quick typed_error_fields;
        Alcotest.test_case "torn append is a strict prefix" `Quick torn_append_partial;
        Alcotest.test_case "schedule is deterministic" `Quick deterministic_schedule;
        Alcotest.test_case "parse_profile" `Quick parse_profile_roundtrip;
      ] );
  ]
