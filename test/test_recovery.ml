(* Recovery tests (§3.5): checkpointing, crash simulation, prefix
   consistency, epochs and the recovery table, synchronous mode, clean
   reopen. *)

open Evendb_storage
open Evendb_core

let tiny_config =
  {
    Config.default with
    max_chunk_bytes = 8 * 1024;
    munk_rebalance_bytes = 6 * 1024;
    munk_rebalance_appended = 64;
    funk_log_limit_no_munk = 2 * 1024;
    funk_log_limit_with_munk = 8 * 1024;
    munk_cache_capacity = 4;
    checkpoint_every_puts = 0;
  }

let key i = Printf.sprintf "key%06d" i

let clean_reopen () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 499 do
    Db.put db (key i) (string_of_int i)
  done;
  Db.delete db (key 100);
  Db.close db;
  (* close checkpoints, so nothing is lost. *)
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 499 do
    if i = 100 then
      Alcotest.(check (option string)) "tombstone survives" None (Db.get db (key i))
    else
      Alcotest.(check (option string)) (key i) (Some (string_of_int i)) (Db.get db (key i))
  done;
  Alcotest.(check int) "scan after reopen" 499
    (List.length (Db.scan db ~low:"" ~high:"zzzz" ()));
  Db.close db

let crash_after_checkpoint () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 99 do
    Db.put db (key i) "durable"
  done;
  Db.checkpoint db;
  for i = 100 to 149 do
    Db.put db (key i) "volatile"
  done;
  Env.crash env;
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 99 do
    Alcotest.(check (option string)) "checkpointed survives" (Some "durable") (Db.get db (key i))
  done;
  (* Everything after the checkpoint must be gone (no put landed in a
     synced file afterwards). *)
  for i = 100 to 149 do
    Alcotest.(check (option string)) "uncheckpointed lost" None (Db.get db (key i))
  done;
  Db.close db

let prefix_consistency () =
  (* The core guarantee: if a put survives the crash, every earlier
     put survives too — even when some fsyncs happen between
     checkpoints (funk rebuilds fsync their SSTables). *)
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  let n = 1500 in
  for i = 0 to n - 1 do
    Db.put db (key i) (string_of_int i);
    if i = n / 2 then Db.checkpoint db
  done;
  Env.crash env;
  let db = Db.open_ ~config:tiny_config env in
  let last_survivor = ref (-1) in
  let holes = ref [] in
  for i = 0 to n - 1 do
    match Db.get db (key i) with
    | Some _ ->
      if !last_survivor <> i - 1 then holes := i :: !holes;
      last_survivor := i
    | None -> ()
  done;
  Alcotest.(check (list int)) "no holes in the surviving prefix" [] !holes;
  Alcotest.(check bool) "checkpoint covered" true (!last_survivor >= n / 2);
  Db.close db

let overwrites_prefix_consistency () =
  (* With overwrites of one key, recovery must yield the version from
     a consistent point: not newer than any lost later write. *)
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for v = 0 to 200 do
    Db.put db "x" (string_of_int v);
    Db.put db "marker" (string_of_int v);
    if v = 100 then Db.checkpoint db
  done;
  Env.crash env;
  let db = Db.open_ ~config:tiny_config env in
  (match (Db.get db "x", Db.get db "marker") with
  | Some x, Some m ->
    let x = int_of_string x and m = int_of_string m in
    Alcotest.(check bool) "at least the checkpoint" true (x >= 100 && m >= 100);
    (* marker v is written after x v: surviving marker v implies x >= v *)
    Alcotest.(check bool) "x not behind marker" true (x >= m)
  | _ -> Alcotest.fail "checkpointed keys lost");
  Db.close db

let epochs_across_crashes () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  Alcotest.(check int) "first epoch" 0 (Db.current_epoch db);
  Db.put db "a" "1";
  Db.checkpoint db;
  Env.crash env;
  let db = Db.open_ ~config:tiny_config env in
  Alcotest.(check bool) "epoch advanced" true (Db.current_epoch db > 0);
  Db.put db "b" "2";
  Db.checkpoint db;
  Env.crash env;
  let db = Db.open_ ~config:tiny_config env in
  Alcotest.(check bool) "epoch advanced again" true (Db.current_epoch db > 1);
  Alcotest.(check (option string)) "epoch-0 data" (Some "1") (Db.get db "a");
  Alcotest.(check (option string)) "epoch-1 data" (Some "2") (Db.get db "b");
  Db.close db

let crash_without_any_checkpoint () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 49 do
    Db.put db (key i) "v"
  done;
  Env.crash env;
  let db = Db.open_ ~config:tiny_config env in
  (* Nothing was checkpointed: the store must come back empty but
     functional. *)
  Alcotest.(check int) "no survivors" 0 (List.length (Db.scan db ~low:"" ~high:"zzzz" ()));
  Db.put db "new" "life";
  Alcotest.(check (option string)) "writable after recovery" (Some "life") (Db.get db "new");
  Db.close db

let sync_mode_survives_without_checkpoint () =
  let env = Env.memory () in
  let config = { tiny_config with Config.persistence = Config.Sync } in
  let db = Db.open_ ~config env in
  for i = 0 to 49 do
    Db.put db (key i) "fsynced"
  done;
  Env.crash env;
  let db = Db.open_ ~config env in
  for i = 0 to 49 do
    Alcotest.(check (option string)) "synchronous put survives" (Some "fsynced")
      (Db.get db (key i))
  done;
  Db.close db

(* An unreadable MODE is a counted fallback, never a silent one:
   recovery assumes Async (only checkpointed data is trusted) and
   counts the corruption, on the same file fsck calls a structural
   error. *)
let unreadable_mode_counted () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 49 do
    Db.put db (key i) "checkpointed"
  done;
  Db.close db;
  let f = Env.create env Layout.mode_file in
  Env.append f "garbage";
  Env.fsync f;
  Env.close_file f;
  Alcotest.(check bool) "fsck: a structural error" true
    (List.map (fun f -> f.Evendb_check.Scrub.f_kind) (Evendb_check.Scrub.scrub env).findings
    = [ Evendb_check.Scrub.Structural ]);
  let before = Env.corruptions_detected env in
  let db = Db.open_ ~config:tiny_config env in
  Alcotest.(check int) "fallback counted in io.corruptions" (before + 1)
    (Env.corruptions_detected env);
  Alcotest.(check (option string)) "checkpointed data visible" (Some "checkpointed")
    (Db.get db (key 0));
  Db.close db

let recovery_after_splits () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  let n = 1200 in
  for i = 0 to n - 1 do
    Db.put db (key i) (String.make 64 'v')
  done;
  Alcotest.(check bool) "split happened" true (Db.chunk_count db > 2);
  Db.checkpoint db;
  Env.crash env;
  let db = Db.open_ ~config:tiny_config env in
  Alcotest.(check bool) "chunks rebuilt" true (Db.chunk_count db > 2);
  for i = 0 to n - 1 do
    if Db.get db (key i) = None then Alcotest.failf "lost %s after split recovery" (key i)
  done;
  Db.close db

(* A memory backend whose creates of files matching [pred] fail once
   armed: [arm n] makes the [n]-th matching create from then on raise
   [Io_error] (every other operation, and every later create,
   succeeds); [fired ()] tells whether it has. *)
let failing_create ~pred =
  let (Backend.B (module Inner)) = Backend.memory () in
  let left = ref (-1) in
  let backend =
    Backend.B
      (module struct
        include Inner

        let create name =
          if pred name && !left > 0 then begin
            decr left;
            if !left = 0 then Io_error.raise_io ~op:"create" ~file:name ~detail:"injected"
          end;
          Inner.create name
      end)
  in
  (backend, (fun n -> left := n), fun () -> !left = 0)

let is_funk_sst name =
  String.length name > 5 && String.sub name 0 5 = "funk_" && Filename.check_suffix name ".sst"

(* One fault point: the [n]-th matching create fails somewhere in a
   splitting workload, or in the deletes and [maintain] (which merges)
   that follow it. After each of the two phases the store crashes and
   must reopen serving every acked write; an async store is
   checkpointed first so that every ack is durable. A write that raised
   (a munk eviction it paid for failed) may or may not have landed, so
   its key may read either way. Returns whether the fault fired, so the
   sweep knows when it has passed the last matching create. *)
let acked_survive_fault ~persistence ~pred n =
  let config = { tiny_config with Config.persistence } in
  let backend, arm, fired = failing_create ~pred in
  let env = Env.of_backend backend in
  let db = ref (Db.open_ ~config env) in
  arm n;
  let expect = Hashtbl.create 2048 in
  let write k v =
    match match v with Some v -> Db.put !db k v | None -> Db.delete !db k with
    | () -> Hashtbl.replace expect k [ v ]
    | exception Env.Io_error _ ->
      Hashtbl.replace expect k (v :: Option.value ~default:[ None ] (Hashtbl.find_opt expect k))
  in
  let crash_and_check phase =
    if persistence = Config.Async then Db.checkpoint !db;
    Env.crash env;
    db := Db.open_ ~config env;
    let found = Hashtbl.of_seq (List.to_seq (Db.scan !db ~low:"" ~high:"zzzz" ())) in
    Hashtbl.iter
      (fun k vs ->
        if not (List.mem (Hashtbl.find_opt found k) vs) then
          Alcotest.failf "fault at create %d: acked %s of %s lost after the %s" n
            (if List.hd vs = None then "delete" else "put")
            k phase)
      expect
  in
  for i = 0 to 1999 do
    write (key (i * 7919 mod 2003)) (Some (String.make 40 'v'))
  done;
  crash_and_check "splits";
  for i = 0 to 1499 do
    write (key i) None
  done;
  (try Db.maintain !db with Env.Io_error _ -> ());
  crash_and_check "merges";
  Db.close !db;
  fired ()

(* Every fault point, not one pinned index: which create loses data
   shifts with the per-domain access tick, which carries across tests
   run in one process. *)
let sweep_faults ~persistence ~pred () =
  let rec go n = if acked_survive_fault ~persistence ~pred n then go (n + 1) in
  go 1

let recovery_table_roundtrip () =
  let env = Env.memory () in
  let rt =
    Recovery_table.(add (add empty ~epoch:0 ~last_seq:1375) ~epoch:1 ~last_seq:956)
  in
  Recovery_table.store env rt;
  let rt' = Recovery_table.load env in
  Alcotest.(check (option int)) "epoch 0" (Some 1375) (Recovery_table.last_seq rt' ~epoch:0);
  Alcotest.(check (option int)) "epoch 1" (Some 956) (Recovery_table.last_seq rt' ~epoch:1);
  Alcotest.(check int) "max epoch" 1 (Recovery_table.max_epoch rt');
  (* Visibility (Table 1 semantics): epoch-0 version 1375 visible,
     1376 not; current epoch always visible. *)
  let v_ok = Evendb_core.Version.pack ~epoch:0 ~seq:1375 in
  let v_bad = Evendb_core.Version.pack ~epoch:0 ~seq:1376 in
  let v_cur = Evendb_core.Version.pack ~epoch:2 ~seq:999999 in
  Alcotest.(check bool) "<= checkpoint visible" true
    (Recovery_table.is_visible rt' ~current_epoch:2 v_ok);
  Alcotest.(check bool) "> checkpoint invisible" false
    (Recovery_table.is_visible rt' ~current_epoch:2 v_bad);
  Alcotest.(check bool) "current epoch visible" true
    (Recovery_table.is_visible rt' ~current_epoch:2 v_cur);
  Alcotest.(check bool) "unknown epoch invisible" false
    (Recovery_table.is_visible rt' ~current_epoch:5 (Evendb_core.Version.pack ~epoch:3 ~seq:1))

(* A store that fails midway (here: every append faults) must leave the
   previous table loadable and no tmp file behind. *)
let recovery_table_failed_store () =
  let plan = Fault.plan ~seed:3 ~rate:1.0 ~torn_fraction:0.0 () in
  Fault.set_armed plan false;
  let env = Env.memory ~faults:plan () in
  let rt = Recovery_table.(add empty ~epoch:0 ~last_seq:41) in
  Recovery_table.store env rt;
  Fault.set_armed plan true;
  (match Recovery_table.store env (Recovery_table.add rt ~epoch:1 ~last_seq:7) with
  | () -> Alcotest.fail "expected the faulted store to raise"
  | exception Env.Io_error _ -> ());
  Fault.set_armed plan false;
  let rt' = Recovery_table.load env in
  Alcotest.(check (option int)) "previous row" (Some 41) (Recovery_table.last_seq rt' ~epoch:0);
  Alcotest.(check (option int)) "failed row absent" None (Recovery_table.last_seq rt' ~epoch:1);
  Alcotest.(check bool) "no tmp left" false
    (Env.exists env (Recovery_table.file_name ^ ".tmp"))

(* The same for the unframed FENCED marker: a fence whose publish
   faults raises, leaves no tmp file and leaves the store writable. *)
let fence_failed_store () =
  let plan = Fault.plan ~seed:3 ~rate:1.0 ~torn_fraction:0.0 () in
  Fault.set_armed plan false;
  let env = Env.memory ~faults:plan () in
  let db = Db.open_ env in
  Fault.set_armed plan true;
  (match Db.fence db with
  | () -> Alcotest.fail "expected the faulted fence to raise"
  | exception Env.Io_error _ -> ());
  Fault.set_armed plan false;
  Alcotest.(check bool) "no tmp left" false (Env.exists env "FENCED.tmp");
  Alcotest.(check bool) "no marker" false (Env.exists env "FENCED");
  Alcotest.(check bool) "not fenced" false (Db.fenced db);
  Db.close db

let version_packing () =
  let v = Version.pack ~epoch:7 ~seq:123456 in
  Alcotest.(check int) "epoch" 7 (Version.epoch v);
  Alcotest.(check int) "seq" 123456 (Version.seq v);
  Alcotest.(check bool) "epoch dominates" true
    (Version.pack ~epoch:2 ~seq:0 > Version.pack ~epoch:1 ~seq:(1 lsl 40));
  Alcotest.check_raises "epoch overflow"
    (Invalid_argument "Version.pack: epoch out of range") (fun () ->
      ignore (Version.pack ~epoch:(Version.max_epoch + 1) ~seq:0))

let checkpoint_file_roundtrip () =
  let env = Env.memory () in
  Alcotest.(check (option int)) "absent" None (Checkpoint_file.load env);
  Checkpoint_file.store env ~version:424242;
  Alcotest.(check (option int)) "roundtrip" (Some 424242) (Checkpoint_file.load env)

let auto_checkpoint () =
  let env = Env.memory () in
  let config = { tiny_config with Config.checkpoint_every_puts = 100 } in
  let db = Db.open_ ~config env in
  for i = 0 to 499 do
    Db.put db (key i) "v"
  done;
  Env.crash env;
  let db = Db.open_ ~config env in
  (* At least four auto-checkpoints fired: most data must survive. *)
  let survivors = List.length (Db.scan db ~low:"" ~high:"zzzz" ()) in
  Alcotest.(check bool) (Printf.sprintf "%d survivors >= 400" survivors) true (survivors >= 400);
  Db.close db

(* Earlier builds kept a sorted-view sidecar, [funk_<id>.view], next to
   each funk. Recovery sweeps them, live funk or not, so a store written
   by such a build reopens with the same contents and scrubs clean. *)
let sweeps_old_view_sidecars () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 499 do
    Db.put db (key i) (string_of_int i)
  done;
  List.iter (fun (k, _, _) -> ignore (Db.evict_munk db k)) (Db.chunk_weights db);
  let before = Db.scan db ~low:"" ~high:"zzzz" () in
  Db.close db;
  let live = match Manifest.load env with Some m -> m.Manifest.live | None -> [] in
  Alcotest.(check bool) "a live funk" true (live <> []);
  let planted = Printf.sprintf "funk_%08d.view" (List.hd live) in
  let f = Env.create env planted in
  Env.append f "EVVIEW02 sidecar bytes an earlier build wrote";
  Env.fsync f;
  Env.close_file f;
  let db = Db.open_ ~config:tiny_config env in
  Alcotest.(check bool) "sidecar swept" false (Env.exists env planted);
  Alcotest.(check (list (pair string string))) "full scan unchanged" before
    (Db.scan db ~low:"" ~high:"zzzz" ());
  Db.close db;
  let report = Evendb_check.Scrub.scrub env in
  Alcotest.(check bool) "scrub clean" true (Evendb_check.Scrub.is_clean report);
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun f -> f.Evendb_check.Scrub.f_file) report.findings)

let suite =
  [
    ( "recovery",
      [
        Alcotest.test_case "clean reopen" `Quick clean_reopen;
        Alcotest.test_case "crash after checkpoint" `Quick crash_after_checkpoint;
        Alcotest.test_case "prefix consistency" `Quick prefix_consistency;
        Alcotest.test_case "overwrite prefix consistency" `Quick overwrites_prefix_consistency;
        Alcotest.test_case "epochs across crashes" `Quick epochs_across_crashes;
        Alcotest.test_case "crash without checkpoint" `Quick crash_without_any_checkpoint;
        Alcotest.test_case "sync mode" `Quick sync_mode_survives_without_checkpoint;
        Alcotest.test_case "unreadable MODE is a counted fallback" `Quick unreadable_mode_counted;
        Alcotest.test_case "recovery after splits" `Quick recovery_after_splits;
        Alcotest.test_case "auto checkpoint" `Quick auto_checkpoint;
        Alcotest.test_case "old view sidecars are swept" `Quick sweeps_old_view_sidecars;
        Alcotest.test_case "acked writes survive failed funk creates (async)" `Quick
          (sweep_faults ~persistence:Config.Async ~pred:is_funk_sst);
        Alcotest.test_case "acked writes survive failed funk creates (sync)" `Quick
          (sweep_faults ~persistence:Config.Sync ~pred:is_funk_sst);
        Alcotest.test_case "acked writes survive failed manifest stores (sync)" `Quick
          (sweep_faults ~persistence:Config.Sync ~pred:(String.equal "MANIFEST.tmp"));
        Alcotest.test_case "acked writes survive failed manifest stores (async)" `Quick
          (sweep_faults ~persistence:Config.Async ~pred:(String.equal "MANIFEST.tmp"));
      ] );
    ( "recovery_metadata",
      [
        Alcotest.test_case "recovery table (Table 1)" `Quick recovery_table_roundtrip;
        Alcotest.test_case "recovery table store fails cleanly" `Quick
          recovery_table_failed_store;
        Alcotest.test_case "fence store fails cleanly" `Quick fence_failed_store;
        Alcotest.test_case "version packing" `Quick version_packing;
        Alcotest.test_case "checkpoint file" `Quick checkpoint_file_roundtrip;
      ] );
  ]

(* Property: crash at a random point -> survivors are a prefix.
   Writers append markers seq0, seq1, ... with a checkpoint sprinkled
   in; after the crash the set of surviving sequence numbers must be
   a prefix of the history and include everything up to the last
   checkpoint. *)
let crash_prefix_property =
  QCheck.Test.make ~name:"random crash point recovers a prefix" ~count:15
    QCheck.(pair (int_range 10 400) (int_range 0 400))
    (fun (total, ckpt_at) ->
      let ckpt_at = ckpt_at mod total in
      let env = Env.memory () in
      let db = Db.open_ ~config:tiny_config env in
      for i = 0 to total - 1 do
        Db.put db (Printf.sprintf "seq%06d" i) (string_of_int i);
        if i = ckpt_at then Db.checkpoint db
      done;
      Env.crash env;
      let db = Db.open_ ~config:tiny_config env in
      let last = ref (-1) in
      let holes = ref false in
      for i = 0 to total - 1 do
        match Db.get db (Printf.sprintf "seq%06d" i) with
        | Some _ ->
          if !last <> i - 1 then holes := true;
          last := i
        | None -> ()
      done;
      Db.close db;
      (not !holes) && !last >= ckpt_at)

let suite =
  suite
  @ [
      ( "recovery_property",
        [ QCheck_alcotest.to_alcotest crash_prefix_property ] );
    ]
