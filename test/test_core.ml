(* EvenDB end-to-end tests: the public API under configurations that
   force splits, funk rebalances, munk eviction and the row-cache
   path, plus model-based random testing. *)

open Evendb_storage
open Evendb_core

let qtest = QCheck_alcotest.to_alcotest

(* Tiny thresholds so a few hundred keys exercise every maintenance
   path. *)
let tiny_config =
  {
    Config.default with
    max_chunk_bytes = 8 * 1024;
    munk_rebalance_bytes = 6 * 1024;
    munk_rebalance_appended = 64;
    funk_log_limit_no_munk = 2 * 1024;
    funk_log_limit_with_munk = 8 * 1024;
    munk_cache_capacity = 4;
    row_cache_capacity_per_table = 64;
    checkpoint_every_puts = 0;
  }

let with_db ?(config = tiny_config) f =
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  Fun.protect ~finally:(fun () -> Db.close db) (fun () -> f env db)

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%d" i

(* The munk cache's byte bound: the resident bytes it charges are the
   resident munks' built sizes, and at most one chunk above the budget
   of [munk_cache_capacity] full chunks. *)
let check_munk_bytes db what =
  let charged = List.fold_left (fun acc c -> acc + c.Db.cs_charged_bytes) 0 (Db.chunk_stats db) in
  Alcotest.(check int) (what ^ ": charged = resident munks' built bytes") charged (Db.munk_bytes db);
  let cfg = Db.config db in
  Alcotest.(check int) (what ^ ": budget") (cfg.Config.munk_cache_capacity * cfg.Config.max_chunk_bytes)
    (Db.munk_budget_bytes db);
  let bound = Db.munk_budget_bytes db + cfg.Config.max_chunk_bytes in
  if Db.munk_bytes db > bound then
    Alcotest.failf "%s: %d resident munk bytes, bound %d" what (Db.munk_bytes db) bound

let munk_loads db = Evendb_obs.Obs.Counter.get (Evendb_obs.Obs.counter (Db.obs db) "munk.loads")

let put_get () =
  with_db (fun _ db ->
      Alcotest.(check (option string)) "empty store" None (Db.get db "missing");
      Db.put db "k" "v";
      Alcotest.(check (option string)) "read back" (Some "v") (Db.get db "k");
      Db.put db "k" "v2";
      Alcotest.(check (option string)) "overwrite" (Some "v2") (Db.get db "k"))

let delete_semantics () =
  with_db (fun _ db ->
      Db.put db "k" "v";
      Db.delete db "k";
      Alcotest.(check (option string)) "deleted" None (Db.get db "k");
      Db.delete db "never-existed";
      Alcotest.(check (option string)) "idempotent" None (Db.get db "never-existed");
      Db.put db "k" "again";
      Alcotest.(check (option string)) "reinsert" (Some "again") (Db.get db "k"))

let empty_and_edge_keys () =
  with_db (fun _ db ->
      Db.put db "" "empty-key";
      Db.put db "k" "";
      Alcotest.(check (option string)) "empty key" (Some "empty-key") (Db.get db "");
      Alcotest.(check (option string)) "empty value" (Some "") (Db.get db "k");
      let long = String.make 2000 'k' in
      Db.put db long (String.make 5000 'v');
      Alcotest.(check bool) "long key/value" true (Db.get db long <> None))

let scan_basic () =
  with_db (fun _ db ->
      for i = 0 to 99 do
        Db.put db (key i) (value i)
      done;
      let r = Db.scan db ~low:(key 10) ~high:(key 19) () in
      Alcotest.(check int) "inclusive range" 10 (List.length r);
      Alcotest.(check string) "first" (key 10) (fst (List.hd r));
      let sorted = List.sort compare r in
      Alcotest.(check bool) "sorted output" true (sorted = r);
      Alcotest.(check int) "limit" 3 (List.length (Db.scan db ~limit:3 ~low:(key 0) ~high:(key 99) ()));
      Alcotest.(check int) "empty range" 0 (List.length (Db.scan db ~low:"zz" ~high:"aa" ()));
      Alcotest.(check int) "whole store" 100
        (List.length (Db.scan db ~low:"" ~high:"zzzz" ())))

let scan_skips_tombstones () =
  with_db (fun _ db ->
      for i = 0 to 9 do
        Db.put db (key i) (value i)
      done;
      Db.delete db (key 5);
      let r = Db.scan db ~low:(key 0) ~high:(key 9) () in
      Alcotest.(check int) "tombstone hidden" 9 (List.length r);
      Alcotest.(check bool) "key5 absent" true (not (List.mem_assoc (key 5) r)))

let many_keys_split () =
  with_db (fun _ db ->
      let n = 2000 in
      for i = 0 to n - 1 do
        Db.put db (key (i * 13 mod n)) (String.make 64 'v')
      done;
      Alcotest.(check bool) "splits happened" true (Db.chunk_count db > 4);
      check_munk_bytes db "munk cache bounded";
      for i = 0 to n - 1 do
        if Db.get db (key i) = None then Alcotest.failf "lost %s" (key i)
      done;
      (* Scans across chunk boundaries. *)
      let r = Db.scan db ~low:(key 0) ~high:(key (n - 1)) () in
      Alcotest.(check int) "full scan" n (List.length r))

let overwrite_heavy () =
  with_db (fun _ db ->
      for round = 1 to 50 do
        for i = 0 to 20 do
          Db.put db (key i) (Printf.sprintf "round%d-%d" round i)
        done
      done;
      for i = 0 to 20 do
        Alcotest.(check (option string)) "last write wins" (Some (Printf.sprintf "round50-%d" i))
          (Db.get db (key i))
      done)

let eviction_and_row_cache () =
  with_db (fun _ db ->
      for i = 0 to 199 do
        Db.put db (key i) (value i)
      done;
      Db.maintain db;
      (* Explicitly evict the munk covering key 0: reads must fall back
         to the funk (bloom -> log -> sstable) and the row cache. *)
      Alcotest.(check bool) "evicted" true (Db.evict_munk db (key 0));
      Alcotest.(check (option string)) "read from funk" (Some (value 0)) (Db.get db (key 0));
      (* Second read may be served by the row cache — must be equal. *)
      Alcotest.(check (option string)) "read again (cached)" (Some (value 0)) (Db.get db (key 0));
      (* A put to the evicted chunk must keep reads fresh. *)
      Db.put db (key 0) "fresh";
      Alcotest.(check (option string)) "updated after eviction" (Some "fresh") (Db.get db (key 0));
      Db.delete db (key 1);
      Alcotest.(check (option string)) "delete after eviction" None (Db.get db (key 1)))

let eviction_scan () =
  with_db (fun _ db ->
      for i = 0 to 199 do
        Db.put db (key i) (value i)
      done;
      ignore (Db.evict_munk db (key 0));
      let r = Db.scan db ~low:(key 0) ~high:(key 199) () in
      Alcotest.(check int) "scan through munk-less chunk" 200 (List.length r))

let funk_rebalance_path () =
  (* Evict, then hammer the cold chunk with updates until its log
     crosses the limit and a cold funk rebalance (sstable+log merge)
     runs. *)
  with_db (fun _ db ->
      for i = 0 to 99 do
        Db.put db (key i) (value i)
      done;
      ignore (Db.evict_munk db (key 0));
      for round = 0 to 20 do
        for i = 0 to 99 do
          Db.put db (key i) (Printf.sprintf "r%d-%d" round i)
        done;
        Db.maintain db
      done;
      for i = 0 to 99 do
        Alcotest.(check (option string)) "value after cold rebalances"
          (Some (Printf.sprintf "r20-%d" i))
          (Db.get db (key i))
      done)

let write_amplification_sane () =
  with_db (fun _ db ->
      for i = 0 to 999 do
        Db.put db (key i) (String.make 200 'v')
      done;
      let wa = Db.write_amplification db in
      Alcotest.(check bool) (Printf.sprintf "wa=%.2f in (1, 50)" wa) true (wa > 1.0 && wa < 50.0);
      Alcotest.(check bool) "logical counted" true (Db.logical_bytes_written db >= 1000 * 200))

let stats_reporting () =
  let config = { tiny_config with Config.collect_read_stats = true } in
  with_db ~config (fun _ db ->
      for i = 0 to 49 do
        Db.put db (key i) (value i)
      done;
      for i = 0 to 49 do
        ignore (Db.get db (key i))
      done;
      let s = Db.read_stats db in
      Alcotest.(check int) "all gets classified" 50 s.Read_stats.total;
      let munk_share = List.assoc Read_stats.Munk_cache s.Read_stats.fractions in
      Alcotest.(check bool) "hot data served from munks" true (munk_share > 0.9))

let model_random =
  QCheck.Test.make ~name:"db matches map model (sequential)" ~count:30
    QCheck.(
      list_of_size
        Gen.(int_range 1 300)
        (triple (int_range 0 60) (option (string_of_size (Gen.return 4))) bool))
    (fun ops ->
      let env = Env.memory () in
      let db = Db.open_ ~config:tiny_config env in
      let module M = Map.Make (String) in
      let model = ref M.empty in
      List.iter
        (fun (k, v, _) ->
          let k = key k in
          match v with
          | Some v ->
            Db.put db k v;
            model := M.add k (Some v) !model
          | None ->
            Db.delete db k;
            model := M.add k None !model)
        ops;
      let gets_ok =
        M.for_all (fun k expected -> Db.get db k = expected) !model
      in
      let live =
        M.fold (fun k v acc -> match v with Some x -> (k, x) :: acc | None -> acc) !model []
        |> List.sort compare
      in
      let scan_ok = Db.scan db ~low:"" ~high:"zzzz" () = live in
      Db.close db;
      gets_ok && scan_ok)

let scan_snapshot_vs_put () =
  (* A scan's snapshot excludes later puts even single-threaded:
     sanity for version assignment (GV bumps on scan). *)
  with_db (fun _ db ->
      Db.put db "a" "1";
      let before = Db.scan db ~low:"a" ~high:"z" () in
      Db.put db "b" "2";
      let after = Db.scan db ~low:"a" ~high:"z" () in
      Alcotest.(check int) "before" 1 (List.length before);
      Alcotest.(check int) "after" 2 (List.length after))

(* The munk byte trigger fires on growth past the next threshold above
   the size the munk was built at. A munk compacted into the band
   between [munk_rebalance_bytes] and [max_chunk_bytes] is neither
   shrunk nor split by a rebalance, so in-place updates must not re-sort
   it on every put; growing it past [max_chunk_bytes] still splits. *)
let munk_trigger_band () =
  (* A large funk-log limit keeps funk flushes out of the count. *)
  let config = { tiny_config with Config.funk_log_limit_with_munk = 1 lsl 20 } in
  with_db ~config (fun _ db ->
      let v = String.make 100 'v' in
      let only_chunk () =
        match Db.chunk_stats db with
        | [ cs ] -> cs
        | l -> Alcotest.failf "expected one chunk, got %d" (List.length l)
      in
      let i = ref 0 in
      while (only_chunk ()).Db.cs_resident_bytes <= config.Config.munk_rebalance_bytes do
        Db.put db (key !i) v;
        incr i
      done;
      (* Compact the munk in place: it is now built inside the band. *)
      Db.maintain db;
      let built = (only_chunk ()).Db.cs_resident_bytes in
      Alcotest.(check bool)
        "compacted munk in the (rebalance, split) band" true
        (built > config.munk_rebalance_bytes && built <= config.max_chunk_bytes);
      let before = (only_chunk ()).cs_stat.Chunk.st_rebalances in
      let n = 50 in
      for j = 0 to n - 1 do
        Db.put db (key (j mod !i)) v
      done;
      let cs = only_chunk () in
      Alcotest.(check int) "updates were in place" built cs.cs_resident_bytes;
      Alcotest.(check int) "no rebalance on in-place updates" before cs.cs_stat.st_rebalances;
      (* Growing past [max_chunk_bytes] still rebalances and splits. *)
      let first_new = !i in
      while Db.chunk_count db = 1 && !i < 10 * first_new do
        Db.put db (key !i) v;
        incr i
      done;
      Alcotest.(check bool) "split once past max_chunk_bytes" true (Db.chunk_count db > 1);
      for j = 0 to !i - 1 do
        Alcotest.(check (option string)) (key j) (Some v) (Db.get db (key j))
      done)

let suite =
  [
    ( "db",
      [
        Alcotest.test_case "put/get" `Quick put_get;
        Alcotest.test_case "delete" `Quick delete_semantics;
        Alcotest.test_case "edge keys" `Quick empty_and_edge_keys;
        Alcotest.test_case "scan basics" `Quick scan_basic;
        Alcotest.test_case "scan skips tombstones" `Quick scan_skips_tombstones;
        Alcotest.test_case "splits under load" `Quick many_keys_split;
        Alcotest.test_case "overwrite heavy" `Quick overwrite_heavy;
        Alcotest.test_case "eviction and row cache" `Quick eviction_and_row_cache;
        Alcotest.test_case "scan through evicted chunk" `Quick eviction_scan;
        Alcotest.test_case "cold funk rebalance" `Quick funk_rebalance_path;
        Alcotest.test_case "write amplification sane" `Quick write_amplification_sane;
        Alcotest.test_case "read stats" `Quick stats_reporting;
        Alcotest.test_case "scan snapshot vs put" `Quick scan_snapshot_vs_put;
        Alcotest.test_case "munk trigger band" `Quick munk_trigger_band;
        qtest model_random;
      ] );
  ]

let merge_after_deletes () =
  (* The paper leaves chunk merging unimplemented (§3.4); we implement
     it: after mass deletion, maintenance folds underflowing chunks
     back together. A munk cache covering the store makes the live
     weights visible to the merge trigger. *)
  with_db ~config:{ tiny_config with Config.munk_cache_capacity = 256 } (fun _ db ->
      let n = 2000 in
      for i = 0 to n - 1 do
        Db.put db (key i) (String.make 64 'v')
      done;
      let chunks_before = Db.chunk_count db in
      Alcotest.(check bool) "grew" true (chunks_before > 4);
      for i = 0 to n - 1 do
        if i mod 10 <> 0 then Db.delete db (key i)
      done;
      Db.maintain db;
      let chunks_after = Db.chunk_count db in
      Alcotest.(check bool)
        (Printf.sprintf "merged %d -> %d" chunks_before chunks_after)
        true
        (chunks_after < chunks_before);
      (* Content is intact after merging. *)
      for i = 0 to n - 1 do
        let expected = if i mod 10 = 0 then Some (String.make 64 'v') else None in
        if Db.get db (key i) <> expected then Alcotest.failf "wrong content for %s" (key i)
      done;
      Alcotest.(check int) "scan after merge" (n / 10)
        (List.length (Db.scan db ~low:"" ~high:"zzzz" ())))

let merge_preserves_recovery () =
  let env = Env.memory () in
  let config = { tiny_config with Config.munk_cache_capacity = 256 } in
  let db = Db.open_ ~config env in
  for i = 0 to 999 do
    Db.put db (key i) (String.make 64 'v')
  done;
  for i = 0 to 999 do
    if i mod 5 <> 0 then Db.delete db (key i)
  done;
  Db.maintain db;
  Db.checkpoint db;
  Evendb_storage.Env.crash env;
  let db = Db.open_ ~config env in
  Alcotest.(check int) "recovered after merges" 200
    (List.length (Db.scan db ~low:"" ~high:"zzzz" ()));
  Db.close db

(* A merged chunk always takes a munk; when the cache is full, the munks
   the policy evicts for it must actually go, or resident munk bytes
   pile up past the budget until the victims are read again. *)
let merge_respects_munk_capacity () =
  let capacity = 2 in
  let config =
    {
      (Config.scaled ~factor:256 ()) with
      Config.munk_cache_capacity = capacity;
      funk_log_limit_no_munk = 512;
    }
  in
  with_db ~config (fun _ db ->
      let n = 8000 and region = 600 in
      for i = 0 to n - 1 do
        Db.put db (key i) (String.make 200 'v')
      done;
      (* Make the tail hot so its chunks hold the munks. *)
      for _ = 1 to 10 do
        for i = n - 200 to n - 1 do
          ignore (Db.get db (key i))
        done
      done;
      let chunks_before = Db.chunk_count db in
      for r = 0 to 9 do
        for i = r * region to ((r + 1) * region) - 2 do
          Db.delete db (key i)
        done;
        Db.maintain db;
        check_munk_bytes db (Printf.sprintf "round %d" r)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "merged %d -> %d" chunks_before (Db.chunk_count db))
        true
        (Db.chunk_count db < chunks_before))

(* The budget is bytes, so chunks left half full by splits are cached
   beyond [munk_cache_capacity] of them, and the byte bound holds at
   every point: through the load (splits hand both halves a munk) and
   through rounds of reads over the whole store. Keys arrive in order,
   so every split leaves a left half that no later put grows. *)
let half_full_munks_beat_the_count () =
  with_db (fun _ db ->
      let n = 3000 and capacity = tiny_config.Config.munk_cache_capacity in
      for i = 0 to n - 1 do
        Db.put db (key i) (String.make 64 'v');
        if i mod 100 = 99 then check_munk_bytes db (Printf.sprintf "after %d puts" (i + 1))
      done;
      Db.maintain db;
      check_munk_bytes db "after maintain";
      for round = 1 to 5 do
        for i = 0 to n - 1 do
          if Db.get db (key i) = None then Alcotest.failf "lost %s" (key i)
        done;
        let what = Printf.sprintf "read round %d" round in
        check_munk_bytes db what;
        let munks = Db.munk_count db in
        if munks <= capacity then
          Alcotest.failf "%s: %d munks in a budget of %d full chunks" what munks capacity;
        let full = munks * tiny_config.Config.max_chunk_bytes in
        if Db.munk_bytes db * 4 > full * 3 then
          Alcotest.failf "%s: %d munks charge %d bytes, not partial chunks" what munks (Db.munk_bytes db)
      done)

(* A hot set that fits the byte budget is loaded once, though it has
   more chunks than [munk_cache_capacity]: after the first rounds of
   reads every hot chunk has its munk, and no later round loads one
   again. (Under a count cap the hot chunks would take turns.) *)
let hot_set_loaded_once () =
  with_db (fun _ db ->
      let n = 3000 in
      for i = 0 to n - 1 do
        Db.put db (key i) (String.make 64 'v')
      done;
      Db.maintain db;
      List.iter (fun c -> ignore (Db.evict_munk db c.Db.cs_min_key)) (Db.chunk_stats db);
      Alcotest.(check int) "all munks evicted" 0 (Db.munk_count db);
      (* Six neighbouring half-full chunks in the middle: under the
         budget of four full chunks. *)
      let hot_chunks = 6 in
      let chunks = Array.of_list (Db.chunk_stats db) in
      let first = Array.length chunks / 2 in
      let low = chunks.(first).Db.cs_min_key
      and high = chunks.(first + hot_chunks).Db.cs_min_key in
      let hot = List.filter (fun i -> low <= key i && key i < high) (List.init n Fun.id) in
      let loads_after round =
        for _ = 1 to 4 do
          List.iter (fun i -> ignore (Db.get db (key i))) hot
        done;
        check_munk_bytes db (Printf.sprintf "round %d" round);
        munk_loads db
      in
      let warm = loads_after 1 in
      Alcotest.(check int) "each hot chunk loaded once" hot_chunks warm;
      Alcotest.(check int) "hot chunks resident" hot_chunks (Db.munk_count db);
      for round = 2 to 10 do
        Alcotest.(check int) (Printf.sprintf "no load in round %d" round) warm (loads_after round)
      done)

let suite =
  suite
  @ [
      ( "db_merge",
        [
          Alcotest.test_case "merge after deletes" `Quick merge_after_deletes;
          Alcotest.test_case "merge + recovery" `Quick merge_preserves_recovery;
          Alcotest.test_case "merge respects munk capacity" `Quick merge_respects_munk_capacity;
        ] );
      ( "munk_budget",
        [
          Alcotest.test_case "half-full munks beat the count" `Quick half_full_munks_beat_the_count;
          Alcotest.test_case "a hot set is loaded once" `Quick hot_set_loaded_once;
        ] );
    ]

(* ---- Further behavioural coverage ---- *)

let values_survive_all_maintenance () =
  (* Churn one store through every maintenance path (splits, flushes,
     cold rebalances, evictions, merges) and verify the final state is
     exactly the last write of every key. *)
  with_db (fun _ db ->
      let n = 600 in
      for round = 0 to 4 do
        for i = 0 to n - 1 do
          Db.put db (key i) (Printf.sprintf "round%d-%d" round i)
        done;
        ignore (Db.evict_munk db (key (round * 100)));
        Db.maintain db
      done;
      for i = 0 to n - 1 do
        Alcotest.(check (option string)) (key i) (Some (Printf.sprintf "round4-%d" i))
          (Db.get db (key i))
      done)

let scan_limit_exact () =
  with_db (fun _ db ->
      for i = 0 to 49 do
        Db.put db (key i) (value i)
      done;
      List.iter
        (fun l ->
          Alcotest.(check int) (Printf.sprintf "limit %d" l) (min l 50)
            (List.length (Db.scan db ~limit:l ~low:"" ~high:"zzzz" ())))
        [ 0; 1; 7; 50; 100 ])

let checkpoint_version_advances () =
  with_db (fun _ db ->
      let v0 = Db.current_version db in
      Db.checkpoint db;
      let v1 = Db.current_version db in
      Alcotest.(check bool) "checkpoint bumps GV" true (v1 > v0);
      Db.put db "k" "v";
      Alcotest.(check int) "puts do not bump GV" v1 (Db.current_version db);
      ignore (Db.scan db ~low:"" ~high:"z" ());
      Alcotest.(check bool) "scans bump GV" true (Db.current_version db > v1))

let chunk_weights_reporting () =
  with_db (fun _ db ->
      for i = 0 to 99 do
        Db.put db (key i) (String.make 64 'v')
      done;
      let weights = Db.chunk_weights db in
      Alcotest.(check int) "one row per chunk" (Db.chunk_count db) (List.length weights);
      let total = List.fold_left (fun acc (_, w, _) -> acc + w) 0 weights in
      Alcotest.(check bool) "weights reflect data" true (total > 100 * 64))

let reopen_with_different_cache_config () =
  (* Cache sizing is volatile configuration: reopening with different
     capacities must not affect correctness. *)
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 199 do
    Db.put db (key i) (value i)
  done;
  Db.close db;
  let db =
    Db.open_ ~config:{ tiny_config with Config.munk_cache_capacity = 2; row_cache_capacity_per_table = 8 } env
  in
  for i = 0 to 199 do
    Alcotest.(check (option string)) (key i) (Some (value i)) (Db.get db (key i))
  done;
  Db.close db

let suite =
  suite
  @ [
      ( "db_behaviour",
        [
          Alcotest.test_case "survives all maintenance paths" `Quick values_survive_all_maintenance;
          Alcotest.test_case "scan limit exact" `Quick scan_limit_exact;
          Alcotest.test_case "GV discipline" `Quick checkpoint_version_advances;
          Alcotest.test_case "chunk weights reporting" `Quick chunk_weights_reporting;
          Alcotest.test_case "reopen with different caches" `Quick reopen_with_different_cache_config;
        ] );
    ]
