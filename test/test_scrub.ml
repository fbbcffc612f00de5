(* Integrity scrubbing and repair (PR 4).

   - single-byte flip detection: every sampled byte position of every
     file of a populated store, across all three engine layouts, must
     surface as a scrub finding when flipped;
   - repair: quarantines instead of deleting, rebuilds the manifest
     from the funk files, and never loses acked-and-synced writes;
   - degraded reads: a corrupt SSTable block yields typed failures and
     log fallbacks, never a crash;
   - the recovery orphan sweep must never touch quarantine/. *)

open Evendb_storage
open Evendb_check

let evendb_config =
  {
    Evendb_core.Config.default with
    persistence = Evendb_core.Config.Sync;
    max_chunk_bytes = 8 * 1024;
    munk_rebalance_bytes = 6 * 1024;
    munk_rebalance_appended = 64;
    funk_log_limit_no_munk = 2 * 1024;
    funk_log_limit_with_munk = 8 * 1024;
    munk_cache_capacity = 4;
  }

let key_of i = Printf.sprintf "k%04d" i
let value_of i = Printf.sprintf "value%04d" i

let build_evendb_store ?(items = 300) () =
  let env = Env.memory () in
  let db = Evendb_core.Db.open_ ~config:evendb_config env in
  for i = 0 to items - 1 do
    Evendb_core.Db.put db (key_of i) (value_of i)
  done;
  Evendb_core.Db.close db;
  env

let build_lsm_store () =
  let env = Env.memory () in
  let config =
    {
      Evendb_lsm.Lsm.Config.default with
      memtable_bytes = 2 * 1024;
      level_base_bytes = 8 * 1024;
      target_file_bytes = 4 * 1024;
      sync_writes = true;
    }
  in
  let db = Evendb_lsm.Lsm.open_ ~config env in
  for i = 0 to 299 do
    Evendb_lsm.Lsm.put db (key_of i) (value_of i)
  done;
  Evendb_lsm.Lsm.close db;
  env

let build_flsm_store () =
  let env = Env.memory () in
  let config =
    {
      Evendb_flsm.Flsm.Config.default with
      memtable_bytes = 2 * 1024;
      guard_bytes = 8 * 1024;
      sync_writes = true;
    }
  in
  let db = Evendb_flsm.Flsm.open_ ~config env in
  for i = 0 to 299 do
    Evendb_flsm.Flsm.put db (key_of i) (value_of i)
  done;
  Evendb_flsm.Flsm.close db;
  env

(* Two shards split at the middle key: each shard is a whole EvenDB
   layout under its own name prefix. *)
let build_sharded_store ?(items = 300) () =
  let env = Env.memory () in
  let s = Evendb_shard.open_ ~config:evendb_config ~boundaries:[ key_of (items / 2) ] env in
  for i = 0 to items - 1 do
    Evendb_shard.put s (key_of i) (value_of i)
  done;
  Evendb_shard.close s;
  env

let rewrite env name data =
  let f = Env.create env name in
  Env.append f data;
  Env.fsync f;
  Env.close_file f

let flip_byte env name pos =
  let data = Env.read_all env name in
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5A));
  rewrite env name (Bytes.to_string b)

(* Sampled byte positions: exhaustive for small files, evenly spread
   (plus both edges, where headers and footers live) for larger ones. *)
let sample_positions len =
  if len <= 256 then List.init len (fun i -> i)
  else
    let spread = List.init 97 (fun i -> i * (len - 1) / 96) in
    let edges = List.init 8 (fun i -> i) @ List.init 8 (fun i -> len - 1 - i) in
    List.sort_uniq compare (spread @ edges)

let flips_detected label build () =
  let env = build () in
  let files =
    List.filter
      (fun n -> (not (Env.is_quarantined n)) && Env.size env n > 0)
      (Env.list_files env)
  in
  Alcotest.(check bool) (label ^ ": store has files") true (files <> []);
  Alcotest.(check bool) (label ^ ": clean before") true ((Scrub.scrub env).Scrub.findings = []);
  List.iter
    (fun name ->
      let original = Env.read_all env name in
      List.iter
        (fun pos ->
          flip_byte env name pos;
          let report = Scrub.scrub env in
          let hit =
            List.exists (fun (f : Scrub.finding) -> f.Scrub.f_file = name) report.Scrub.findings
          in
          if not hit then
            Alcotest.failf "%s: flip at %s[%d] undetected (%d findings elsewhere)" label name pos
              (List.length report.Scrub.findings);
          rewrite env name original)
        (sample_positions (String.length original)))
    files

let read_back env ~items =
  let db = Evendb_core.Db.open_ ~config:evendb_config env in
  Fun.protect
    ~finally:(fun () -> Evendb_core.Db.close db)
    (fun () ->
      for i = 0 to items - 1 do
        match Evendb_core.Db.get db (key_of i) with
        | Some v when v = value_of i -> ()
        | Some v -> Alcotest.failf "%s: wrong value %S" (key_of i) v
        | None -> Alcotest.failf "%s: lost" (key_of i)
      done)

(* Repair of a sharded store works inside the damaged shard: the
   wrecked SSTable (its data still in the shard's funk log) is
   quarantined and rebuilt under its shard-qualified name, and every
   write of both shards survives. *)
let sharded_repair_in_shard () =
  let items = 20 in
  let env = build_sharded_store ~items () in
  let name = Evendb_core.Layout.(shard_file 1 (sst_name 0)) in
  flip_byte env name 2;
  let report = Scrub.repair env in
  Alcotest.(check (list string)) "acted on the shard's file only" [ name ]
    (List.sort_uniq compare (List.map fst report.Scrub.actions));
  Alcotest.(check int) "no findings left" 0 (List.length report.Scrub.findings);
  Alcotest.(check bool) "quarantined inside the shard's namespace" true
    (Env.exists env (Env.quarantined name));
  let s = Evendb_shard.open_ ~config:evendb_config env in
  Fun.protect
    ~finally:(fun () -> Evendb_shard.close s)
    (fun () ->
      for i = 0 to items - 1 do
        Alcotest.(check (option string)) (key_of i) (Some (value_of i)) (Evendb_shard.get s (key_of i))
      done)

(* Recovery and fsck read one layout: the files fsck reports as
   leftovers (orphans and tmp files) are exactly the files the next
   open deletes, and nothing in the reserved namespaces is touched. *)
let recovery_and_fsck_agree () =
  let env = build_evendb_store () in
  let db = Evendb_core.Db.open_ ~config:evendb_config env in
  ignore (Evendb_core.Db.snapshot db ~id:"keep");
  Evendb_core.Db.close db;
  let live = match Evendb_core.Manifest.load env with Some m -> m.live | None -> [] in
  let id = List.hd live and orphan = 1 + List.fold_left max 0 live in
  let module L = Evendb_core.Layout in
  let planted =
    [
      L.sst_name orphan;
      L.log_name (orphan + 1);
      Printf.sprintf "funk_%08d.view" id;
      "x.tmp";
    ]
  in
  rewrite env (L.sst_name orphan) (Env.read_all env (L.sst_name id));
  rewrite env (L.log_name (orphan + 1)) (Env.read_all env (L.log_name id));
  rewrite env (Printf.sprintf "funk_%08d.view" id) "sidecar of an earlier build";
  rewrite env "x.tmp" "interrupted";
  List.iter
    (fun n -> rewrite env n "kept")
    [
      Env.quarantined (L.sst_name (orphan + 2));
      Env.quarantined "y.tmp";
      Evendb_telemetry.Journal.segment_name 0;
      "telemetry/z.tmp";
    ];
  let leftovers =
    List.filter_map
      (fun (f : Scrub.finding) ->
        match f.f_kind with Scrub.Orphan | Scrub.Leftover_tmp -> Some f.f_file | _ -> None)
      (Scrub.scrub env).findings
  in
  let reserved n = Env.is_quarantined n || Env.is_snapshot n || Env.is_telemetry n in
  let before = List.map (fun n -> (n, Env.read_all env n)) (Env.list_files env) in
  Evendb_core.Db.close (Evendb_core.Db.open_ ~config:evendb_config env);
  let deleted = List.filter (fun (n, _) -> not (Env.exists env n)) before |> List.map fst in
  let sorted = List.sort_uniq compare in
  Alcotest.(check (list string)) "the planted leftovers" (sorted planted) (sorted leftovers);
  Alcotest.(check (list string)) "fsck's leftovers are what recovery deletes" (sorted leftovers)
    (sorted deleted);
  List.iter
    (fun (n, data) ->
      if reserved n && ((not (Env.exists env n)) || Env.read_all env n <> data) then
        Alcotest.failf "recovery touched reserved %s" n)
    before;
  Alcotest.(check bool) "snapshot still published" true (Evendb_core.Snapshot.exists env ~id:"keep")

(* A corrupt MANIFEST makes the store unopenable; repair rebuilds it
   from the funk files and every acked (sync-mode) write survives. *)
let repair_manifest_no_loss () =
  let items = 300 in
  let env = build_evendb_store ~items () in
  flip_byte env "MANIFEST" 3;
  (try
     ignore (Evendb_core.Db.open_ ~config:evendb_config env);
     Alcotest.fail "expected corruption on open"
   with Env.Corruption _ -> ());
  let report = Scrub.repair env in
  Alcotest.(check bool) "repair acted" true (report.Scrub.actions <> []);
  Alcotest.(check bool) "repair left no errors" true (Scrub.is_clean report);
  Alcotest.(check bool) "original quarantined" true
    (Env.exists env (Env.quarantined "MANIFEST"));
  read_back env ~items

(* With all data still in funk logs (no rebalance yet), wrecking an
   SSTable costs nothing: repair rebuilds it and every write survives. *)
let repair_sst_with_log_backup_no_loss () =
  let items = 20 in
  let env = build_evendb_store ~items () in
  flip_byte env "funk_00000000.sst" 2;
  let report = Scrub.repair env in
  Alcotest.(check bool) "repair left no errors" true (Scrub.is_clean report);
  read_back env ~items

(* Find an offset whose flip corrupts a data block only: the table
   still opens (header/index/bloom/footer intact) but verify fails. *)
let corrupt_one_data_block env name =
  let original = Env.read_all env name in
  let rec hunt pos =
    if pos >= String.length original then
      Alcotest.failf "%s: no data-block offset found" name
    else begin
      flip_byte env name pos;
      match
        let r = Evendb_sstable.Sstable.Reader.open_ env name in
        Evendb_sstable.Sstable.Reader.verify r
      with
      | () ->
        rewrite env name original;
        hunt (pos + 1)
      | exception Env.Corruption _ -> (
        match Evendb_sstable.Sstable.Reader.open_ env name with
        | _ -> () (* opens, but a block is bad: the shape we want *)
        | exception Env.Corruption _ ->
          rewrite env name original;
          hunt (pos + 1))
    end
  in
  hunt 8

(* Reads over a corrupt block degrade: typed Corruption or a log-served
   value — never an untyped crash — and detections are counted. *)
let degraded_reads_survive_corrupt_block () =
  let items = 300 in
  let env = build_evendb_store ~items () in
  (* Pick the largest funk SSTable: certainly holds rebalanced data. *)
  let sst =
    List.fold_left
      (fun best n ->
        if String.length n = 17 && String.sub n 0 5 = "funk_" && Filename.check_suffix n ".sst"
        then
          match best with
          | Some b when Env.size env b >= Env.size env n -> best
          | _ -> Some n
        else best)
      None (Env.list_files env)
  in
  let sst = match sst with Some s -> s | None -> Alcotest.fail "no funk sstable" in
  Alcotest.(check bool) "data-bearing table" true (Env.size env sst > 512);
  corrupt_one_data_block env sst;
  let db = Evendb_core.Db.open_ ~config:evendb_config env in
  Fun.protect
    ~finally:(fun () -> Evendb_core.Db.close db)
    (fun () ->
      let served = ref 0 and degraded = ref 0 in
      for i = 0 to items - 1 do
        match Evendb_core.Db.get db (key_of i) with
        | Some v when v = value_of i -> incr served
        | Some v -> Alcotest.failf "%s: wrong value %S" (key_of i) v
        | None -> Alcotest.failf "%s: silently missing" (key_of i)
        | exception Env.Corruption _ -> incr degraded
      done;
      Alcotest.(check bool) "most keys still served" true (!served > items / 2);
      Alcotest.(check bool) "detections counted" true (Env.corruptions_detected env > 0);
      (* Scans must not raise: the damaged chunk degrades to its log. *)
      ignore (Evendb_core.Db.scan db ~low:"" ~high:"zzzz" ());
      (* And the store still accepts writes. *)
      Evendb_core.Db.put db "probe" "alive";
      Alcotest.(check (option string)) "probe" (Some "alive") (Evendb_core.Db.get db "probe"))

let log_resyncs_counted () =
  let env = build_evendb_store ~items:20 () in
  (* All 20 writes live in the sentinel funk's log; tear one record. *)
  flip_byte env "funk_00000000.log" 6;
  let db = Evendb_core.Db.open_ ~config:evendb_config env in
  Fun.protect
    ~finally:(fun () -> Evendb_core.Db.close db)
    (fun () ->
      for i = 0 to 19 do
        ignore (Evendb_core.Db.get db (key_of i))
      done;
      Alcotest.(check bool) "resyncs counted" true (Env.log_resyncs env > 0))

(* The recovery orphan sweeps (all three engines) must never delete
   quarantined evidence — even files whose names would otherwise match
   the sweep patterns. *)
let quarantine_survives_recovery () =
  let evidence env =
    List.iter
      (fun n -> rewrite env (Env.quarantined n) "evidence")
      [ "funk_00000099.sst"; "lsm_99.sst"; "flsm_wal_99.log"; "stray.tmp" ]
  in
  let still_there env label =
    List.iter
      (fun n ->
        Alcotest.(check bool)
          (Printf.sprintf "%s keeps %s" label (Env.quarantined n))
          true
          (Env.exists env (Env.quarantined n)))
      [ "funk_00000099.sst"; "lsm_99.sst"; "flsm_wal_99.log"; "stray.tmp" ]
  in
  let env = build_evendb_store ~items:50 () in
  evidence env;
  Evendb_core.Db.close (Evendb_core.Db.open_ ~config:evendb_config env);
  still_there env "evendb";
  let env = build_lsm_store () in
  evidence env;
  Evendb_lsm.Lsm.close (Evendb_lsm.Lsm.open_ env);
  still_there env "lsm";
  let env = build_flsm_store () in
  evidence env;
  Evendb_flsm.Flsm.close (Evendb_flsm.Flsm.open_ env);
  still_there env "flsm"

(* The auxiliary namespaces added with snapshots/backup/replication
   (snapshots/<id>/ members, backup_*.evbk archives, REPL_LSN,
   FOLLOWER, FENCED) must scrub without a single finding — in
   particular no Unknown_file warning. *)
let aux_namespaces_scrub_clean () =
  let src = build_evendb_store ~items:60 () in
  let db = Evendb_core.Db.open_ ~config:evendb_config src in
  ignore (Evendb_core.Db.snapshot db ~id:"s1");
  Evendb_core.Db.fence db;
  Evendb_core.Db.close db;
  let dest = Env.memory () in
  ignore (Evendb_core.Backup.ship ~src ~dest ~snapshot_id:"s1" ());
  let follower_env = Env.memory () in
  let follower = Evendb_repl.Repl.Follower.open_ ~config:evendb_config follower_env in
  Evendb_repl.Repl.Follower.apply follower
    { Evendb_repl.Repl.lsn = 1; key = "k"; value = Some "v"; version = 1; counter = 0 };
  Evendb_repl.Repl.Follower.close follower;
  List.iter
    (fun (label, env) ->
      let report = Scrub.scrub env in
      if report.Scrub.findings <> [] then
        Alcotest.failf "%s: %d findings on a healthy store (first: %s)" label
          (List.length report.Scrub.findings)
          (match report.Scrub.findings with f :: _ -> f.Scrub.f_file | [] -> ""))
    [
      ("snapshot + FENCED", src);
      ("backup archives", dest);
      ("FOLLOWER + REPL_LSN", follower_env);
    ]

(* A member without a COMPLETE marker is crash debris the recovery
   sweep will drop: a Warning, never an Error. *)
let half_published_member_is_warning () =
  let env = build_evendb_store ~items:20 () in
  rewrite env (Env.snapshot_member ~id:"half" "funk_00000000.sst") "partial";
  let report = Scrub.scrub env in
  (match report.Scrub.findings with
  | [ f ] ->
    Alcotest.(check bool) "warning severity" true (f.Scrub.f_severity = Scrub.Warning);
    Alcotest.(check bool) "orphan kind" true (f.Scrub.f_kind = Scrub.Orphan)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  Alcotest.(check bool) "no errors" true (Scrub.is_clean report)

(* Repairing a store whose LIVE manifest is corrupt must not touch the
   healthy published snapshot: its members are private copies, not
   orphans of the rebuilt manifest. *)
let healthy_snapshot_survives_repair () =
  let items = 60 in
  let env = build_evendb_store ~items () in
  let db = Evendb_core.Db.open_ ~config:evendb_config env in
  ignore (Evendb_core.Db.snapshot db ~id:"keep");
  Evendb_core.Db.close db;
  flip_byte env "MANIFEST" 3;
  let report = Scrub.repair env in
  Alcotest.(check bool) "repair left no errors" true (Scrub.is_clean report);
  Alcotest.(check bool) "snapshot still published" true
    (Evendb_core.Snapshot.exists env ~id:"keep");
  let plen = String.length Env.quarantine_prefix in
  List.iter
    (fun n ->
      if
        Env.is_quarantined n
        && Env.split_snapshot (String.sub n plen (String.length n - plen)) <> None
      then Alcotest.failf "healthy snapshot member quarantined: %s" n)
    (Env.list_files env);
  read_back env ~items

(* A corrupt member invalidates the whole point-in-time copy: repair
   drops the snapshot rather than quarantining one member of it. *)
let corrupt_snapshot_member_drops_snapshot () =
  let env = build_evendb_store ~items:60 () in
  let db = Evendb_core.Db.open_ ~config:evendb_config env in
  ignore (Evendb_core.Db.snapshot db ~id:"bad");
  Evendb_core.Db.close db;
  flip_byte env (Env.snapshot_member ~id:"bad" "MANIFEST") 3;
  let report = Scrub.repair env in
  Alcotest.(check bool) "repair acted" true (report.Scrub.actions <> []);
  Alcotest.(check bool) "snapshot dropped" false (Evendb_core.Snapshot.exists env ~id:"bad");
  Alcotest.(check bool) "no member left behind" true
    (List.for_all (fun n -> Env.split_snapshot n = None) (Env.list_files env))

(* A flipped backup archive is untrusted evidence: quarantined, not
   deleted. *)
let corrupt_archive_quarantined () =
  let src = build_evendb_store ~items:60 () in
  let db = Evendb_core.Db.open_ ~config:evendb_config src in
  ignore (Evendb_core.Db.snapshot db ~id:"s1");
  Evendb_core.Db.close db;
  let dest = Env.memory () in
  ignore (Evendb_core.Backup.ship ~src ~dest ~snapshot_id:"s1" ());
  let name =
    match Evendb_core.Backup.list_archives dest with
    | (_, n) :: _ -> n
    | [] -> Alcotest.fail "no archive"
  in
  flip_byte dest name (Env.size dest name / 2);
  let report = Scrub.repair dest in
  Alcotest.(check bool) "quarantined" true (Env.exists dest (Env.quarantined name));
  Alcotest.(check bool) "gone from the live namespace" false (Env.exists dest name);
  Alcotest.(check bool) "post-repair clean" true (Scrub.is_clean report)

let suite_cases =
  [
    Alcotest.test_case "single-byte flips detected: evendb" `Slow
      (flips_detected "evendb" (fun () -> build_evendb_store ()));
    Alcotest.test_case "single-byte flips detected: lsm" `Slow
      (flips_detected "lsm" build_lsm_store);
    Alcotest.test_case "single-byte flips detected: flsm" `Slow
      (flips_detected "flsm" build_flsm_store);
    Alcotest.test_case "single-byte flips detected: sharded evendb" `Slow (fun () ->
        flips_detected "sharded evendb" (fun () -> build_sharded_store ()) ();
        sharded_repair_in_shard ());
    Alcotest.test_case "recovery and fsck agree" `Quick recovery_and_fsck_agree;
    Alcotest.test_case "repair MANIFEST: no acked write lost" `Quick repair_manifest_no_loss;
    Alcotest.test_case "repair SSTable backed by log: no loss" `Quick
      repair_sst_with_log_backup_no_loss;
    Alcotest.test_case "corrupt block: reads degrade, never crash" `Quick
      degraded_reads_survive_corrupt_block;
    Alcotest.test_case "log resyncs are counted" `Quick log_resyncs_counted;
    Alcotest.test_case "recovery never sweeps quarantine/" `Quick quarantine_survives_recovery;
    Alcotest.test_case "aux namespaces scrub clean" `Quick aux_namespaces_scrub_clean;
    Alcotest.test_case "half-published member is a warning" `Quick
      half_published_member_is_warning;
    Alcotest.test_case "healthy snapshot survives repair" `Quick healthy_snapshot_survives_repair;
    Alcotest.test_case "corrupt snapshot member drops the snapshot" `Quick
      corrupt_snapshot_member_drops_snapshot;
    Alcotest.test_case "corrupt archive quarantined" `Quick corrupt_archive_quarantined;
  ]

let suite = [ ("scrub", suite_cases) ]
