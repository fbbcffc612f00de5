(* Point-in-time snapshots (ISSUE 9).

   - isolation: writes and deletes after the cut are invisible to a
     snapshot reader;
   - a snapshot survives the structural churn of the live store
     (rebalances, splits, munk eviction) untouched — its members are
     private copies;
   - crash between pin and publish: a half-published snapshot (no
     COMPLETE marker) is swept at recovery, published ones survive;
   - the retention cap drops oldest-first;
   - identifiers are validated and collisions rejected;
   - the cut protects every version it sees until the pin: a flush
     racing a cut that waits on a stalled writer, and a writer domain
     churning under a stream of snapshots, lose no key. *)

open Evendb_storage
module Db = Evendb_core.Db
module Config = Evendb_core.Config
module Snapshot = Evendb_core.Snapshot

let config =
  {
    Config.default with
    persistence = Config.Sync;
    max_chunk_bytes = 8 * 1024;
    munk_rebalance_bytes = 6 * 1024;
    munk_rebalance_appended = 64;
    funk_log_limit_no_munk = 2 * 1024;
    funk_log_limit_with_munk = 8 * 1024;
    munk_cache_capacity = 4;
  }

let key_of i = Printf.sprintf "k%04d" i
let pairs = List.map (fun (k, v) -> (k, v))

let snapshot_scan env ~id =
  let r = Snapshot.open_reader env ~id in
  Snapshot.scan r ~low:"" ~high:"zzzz"

let isolation () =
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  for i = 0 to 49 do
    Db.put db (key_of i) (Printf.sprintf "old%04d" i)
  done;
  let before = Db.scan db ~low:"" ~high:"zzzz" () in
  let info = Db.snapshot db ~id:"cut" in
  Alcotest.(check bool) "info id" true (info.Snapshot.id = "cut");
  (* Overwrite, delete, and extend the live store after the cut. *)
  for i = 0 to 49 do
    Db.put db (key_of i) (Printf.sprintf "new%04d" i)
  done;
  for i = 0 to 9 do
    Db.delete db (key_of i)
  done;
  Db.put db "zz_extra" "after";
  Alcotest.(check (list (pair string string)))
    "snapshot reader sees the cut, not the churn" (pairs before) (snapshot_scan env ~id:"cut");
  let r = Snapshot.open_reader env ~id:"cut" in
  Alcotest.(check (option string)) "point get at the cut" (Some "old0003")
    (Snapshot.get r "k0003");
  Alcotest.(check (option string)) "post-cut key invisible" None (Snapshot.get r "zz_extra");
  Alcotest.(check (option string))
    "live store sees the overwrite" (Some "new0020") (Db.get db "k0020");
  Alcotest.(check (option string)) "live store sees the delete" None (Db.get db "k0003");
  Db.close db

let survives_churn () =
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  for i = 0 to 199 do
    Db.put db (key_of i) (Printf.sprintf "old%08d" i)
  done;
  let before = Db.scan db ~low:"" ~high:"zzzz" () in
  ignore (Db.snapshot db ~id:"pinned");
  (* Enough churn to split chunks, rebalance and retire the funks the
     snapshot copied from, then evict every munk. *)
  for round = 1 to 5 do
    for i = 0 to 399 do
      Db.put db (key_of i) (Printf.sprintf "r%02d_%04d" round i)
    done;
    Db.maintain db
  done;
  for i = 0 to 399 do
    ignore (Db.evict_munk db (key_of i))
  done;
  Alcotest.(check bool) "live store split" true (Db.chunk_count db > 1);
  Alcotest.(check (list (pair string string)))
    "snapshot unchanged through rebalance/split/eviction" (pairs before)
    (snapshot_scan env ~id:"pinned");
  Db.close db

let half_published_swept () =
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  for i = 0 to 19 do
    Db.put db (key_of i) "v"
  done;
  let before_snap = Db.scan db ~low:"" ~high:"zzzz" () in
  ignore (Db.snapshot db ~id:"published");
  (* Fabricate the debris of a crash between pin and publish: members
     without a COMPLETE marker, plus an interrupted member .tmp inside
     the healthy snapshot. *)
  let write name data =
    let f = Env.create env name in
    Env.append f data;
    Env.fsync f;
    Env.close_file f
  in
  write (Env.snapshot_member ~id:"half" "funk_00000000.sst") "partial";
  write (Env.snapshot_member ~id:"half" "MANIFEST") "partial";
  write (Env.snapshot_member ~id:"published" "funk_00000000.sst.tmp") "torn";
  Db.close db;
  let db = Db.open_ ~config env in
  Alcotest.(check (list string))
    "only the published snapshot survives recovery" [ "published" ]
    (List.map (fun (i : Snapshot.info) -> i.Snapshot.id) (Db.list_snapshots db));
  Alcotest.(check bool)
    "half-published members swept" false
    (Env.exists env (Env.snapshot_member ~id:"half" "funk_00000000.sst"));
  Alcotest.(check bool)
    "member tmp swept" false
    (Env.exists env (Env.snapshot_member ~id:"published" "funk_00000000.sst.tmp"));
  Alcotest.(check (list (pair string string)))
    "published snapshot still readable" before_snap (snapshot_scan env ~id:"published");
  Db.close db

let retention_cap () =
  let env = Env.memory () in
  let db = Db.open_ ~config:{ config with Config.snapshot_max_retained = 2 } env in
  Db.put db "a" "1";
  ignore (Db.snapshot db ~id:"s1");
  Db.put db "b" "2";
  ignore (Db.snapshot db ~id:"s2");
  Db.put db "c" "3";
  ignore (Db.snapshot db ~id:"s3");
  Alcotest.(check (list string))
    "cap drops the oldest" [ "s2"; "s3" ]
    (List.map (fun (i : Snapshot.info) -> i.Snapshot.id) (Db.list_snapshots db));
  Db.close db

let id_validation () =
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  Db.put db "a" "1";
  ignore (Db.snapshot db ~id:"ok-1");
  (match Db.snapshot db ~id:"ok-1" with
  | _ -> Alcotest.fail "duplicate id accepted"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun id ->
      match Db.snapshot db ~id with
      | _ -> Alcotest.failf "invalid id %S accepted" id
      | exception Invalid_argument _ -> ())
    [ ""; ".."; "a/b"; "a b" ];
  Db.close db

let drop_and_metrics () =
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  Db.put db "a" "1";
  ignore (Db.snapshot db ~id:"s1");
  Db.drop_snapshot db ~id:"s1";
  Alcotest.(check (list string)) "dropped" []
    (List.map (fun (i : Snapshot.info) -> i.Snapshot.id) (Db.list_snapshots db));
  let count name =
    Evendb_obs.Obs.Counter.get (Evendb_obs.Obs.counter (Db.obs db) name)
  in
  Alcotest.(check int) "snapshot.created" 1 (count "snapshot.created");
  Alcotest.(check int) "snapshot.dropped" 1 (count "snapshot.dropped");
  Db.close db

let flushes db = Evendb_obs.Obs.Counter.get (Evendb_obs.Obs.counter (Db.obs db) "funk.flushes")

(* The cut must protect what it sees until the pin: writer B parks
   inside its append to the first chunk, so the snapshot's cut waits on
   B; meanwhile [k], in the last (munk-resident) chunk, is overwritten
   until that chunk flushes. Without a scan slot behind the cut, the
   overwrites discard [k]'s pre-cut version in the munk and the flush
   writes a funk without it, which the snapshot then pins. *)
let cut_survives_flush () =
  let stalled, latched, entered, packed = Test_group_commit.latch_backend () in
  let env = Env.of_backend packed in
  (* A munk cache large enough that no eviction needs B's chunk lock. *)
  let db = Db.open_ ~config:{ config with munk_cache_capacity = 64 } env in
  let filler = String.make 200 'f' in
  for i = 0 to 199 do
    Db.put db (key_of i) filler
  done;
  Alcotest.(check bool) "preload split the store" true (Db.chunk_count db >= 2);
  let k = key_of 199 in
  Db.put db k "before";
  let b =
    Domain.spawn (fun () ->
        Atomic.set stalled (Domain.self () :> int);
        Db.put db "a-stalled" "b")
  in
  while not (Atomic.get entered) do
    Unix.sleepf 1e-4
  done;
  let v0 = Db.current_version db in
  let snap = Domain.spawn (fun () -> Db.snapshot db ~id:"cut") in
  while Db.current_version db = v0 do
    Unix.sleepf 1e-4
  done;
  (* Not [Db.maintain]: it would block on B's chunk lock. The put path
     flushes the chunk inline. *)
  let f0 = flushes db in
  let i = ref 0 in
  while flushes db = f0 do
    incr i;
    Db.put db k (Printf.sprintf "after%d" !i)
  done;
  Atomic.set latched false;
  Domain.join b;
  let info = Domain.join snap in
  Alcotest.(check int) "cut taken while B was in flight" v0 info.Snapshot.version;
  let r = Snapshot.open_reader env ~id:"cut" in
  Alcotest.(check (option string)) "pre-cut value of k" (Some "before") (Snapshot.get r k);
  Alcotest.(check (option string)) "B's put, below the cut" (Some "b") (Snapshot.get r "a-stalled");
  Db.close db

(* One writer domain overwrites every key under tiny thresholds (munk
   rebalances, flushes, splits) while this domain takes and reads back
   snapshots. Every key is written before the first cut and never
   deleted, so each snapshot must hold all of them. *)
let no_lost_keys persistence () =
  let env = Env.memory () in
  let db = Db.open_ ~config:{ config with persistence } env in
  let n = 200 in
  for i = 0 to n - 1 do
    Db.put db (key_of i) "v0"
  done;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let round = ref 0 and pad = String.make 64 'p' in
        while not (Atomic.get stop) do
          incr round;
          for i = 0 to n - 1 do
            Db.put db (key_of i) (Printf.sprintf "r%06d%s" !round pad)
          done
        done)
  in
  let bad =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join writer)
      (fun () ->
        List.filter_map
          (fun s ->
            let id = Printf.sprintf "s%03d" s in
            let info = Db.snapshot db ~id in
            let held = List.length (snapshot_scan env ~id) in
            Db.drop_snapshot db ~id;
            if held = n then None
            else Some (Printf.sprintf "%s (cut %d): %d of %d keys" id info.Snapshot.version held n))
          (List.init 300 Fun.id))
  in
  Db.close db;
  Alcotest.(check (list string)) "snapshots missing keys" [] bad

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "cut survives a flush before the pin" `Quick cut_survives_flush;
        Alcotest.test_case "no lost keys under churn (sync)" `Quick (no_lost_keys Config.Sync);
        Alcotest.test_case "no lost keys under churn (async)" `Quick (no_lost_keys Config.Async);
        Alcotest.test_case "isolation at the cut" `Quick isolation;
        Alcotest.test_case "survives rebalance/split/eviction" `Quick survives_churn;
        Alcotest.test_case "half-published swept at recovery" `Quick half_published_swept;
        Alcotest.test_case "retention cap" `Quick retention_cap;
        Alcotest.test_case "id validation" `Quick id_validation;
        Alcotest.test_case "drop and metrics" `Quick drop_and_metrics;
      ] );
  ]
