(* Multi-domain concurrency tests (§3.2-§3.3): parallel puts and gets,
   atomic-scan snapshot invariants, concurrent splits, and the PO
   array's synchronization primitives. *)

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

let parallel_disjoint_puts () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  let per_domain = 500 in
  let domains =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Db.put db (key ((d * per_domain) + i)) (Printf.sprintf "d%d-%d" d i)
            done))
  in
  List.iter Domain.join domains;
  for d = 0 to 2 do
    for i = 0 to per_domain - 1 do
      let k = key ((d * per_domain) + i) in
      if Db.get db k <> Some (Printf.sprintf "d%d-%d" d i) then
        Alcotest.failf "lost or wrong %s" k
    done
  done;
  Alcotest.(check int) "scan total" (3 * per_domain)
    (List.length (Db.scan db ~low:"" ~high:"zzzz" ()));
  Db.close db

let parallel_same_keys () =
  (* Contended overwrites: after the dust settles, each key holds the
     value of SOME completed put (no corruption, no resurrection). *)
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  let valid = Hashtbl.create 64 in
  for d = 0 to 2 do
    for r = 0 to 199 do
      Hashtbl.replace valid (Printf.sprintf "d%d-r%d" d r) ()
    done
  done;
  let domains =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for r = 0 to 199 do
              for k = 0 to 9 do
                Db.put db (key k) (Printf.sprintf "d%d-r%d" d r)
              done
            done))
  in
  List.iter Domain.join domains;
  for k = 0 to 9 do
    match Db.get db (key k) with
    | Some v ->
      if not (Hashtbl.mem valid v) then Alcotest.failf "impossible value %s" v
    | None -> Alcotest.failf "key %d lost" k
  done;
  Db.close db

let readers_during_writes () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 0 to 99 do
    Db.put db (key i) "initial"
  done;
  let stop = Atomic.make false in
  let reader_errors = Atomic.make 0 in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              for i = 0 to 99 do
                match Db.get db (key i) with
                | Some _ -> ()
                | None -> Atomic.incr reader_errors
              done
            done))
  in
  (* Writer churns values and forces splits/rebalances. *)
  for round = 0 to 20 do
    for i = 0 to 99 do
      Db.put db (key i) (Printf.sprintf "r%d" round)
    done
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Alcotest.(check int) "no reader ever missed a key" 0 (Atomic.get reader_errors);
  Db.close db

let scan_snapshot_monotone_pair () =
  (* Writer maintains the invariant a >= b (it writes a=i then b=i).
     Every atomic scan must observe b <= a; a non-atomic scan could
     see b > a (b written between reading a and b). *)
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  Db.put db "aaa" "0";
  Db.put db "bbb" "0";
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let scanner =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let r = Db.scan db ~low:"aaa" ~high:"bbb" () in
          match (List.assoc_opt "aaa" r, List.assoc_opt "bbb" r) with
          | Some a, Some b ->
            if int_of_string b > int_of_string a then Atomic.incr violations
          | _ -> Atomic.incr violations
        done)
  in
  for i = 1 to 3000 do
    Db.put db "aaa" (string_of_int i);
    Db.put db "bbb" (string_of_int i)
  done;
  Atomic.set stop true;
  Domain.join scanner;
  Alcotest.(check int) "snapshot invariant held" 0 (Atomic.get violations);
  Db.close db

let scans_during_splits () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let scanner =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (* Count monotonicity: the store only grows in this test. *)
          let r = Db.scan db ~low:"" ~high:"zzzz" () in
          let sorted = List.sort compare r in
          if sorted <> r then Atomic.incr bad
        done)
  in
  for i = 0 to 1499 do
    Db.put db (key i) (String.make 64 'v')
  done;
  Atomic.set stop true;
  Domain.join scanner;
  Alcotest.(check int) "scans stayed sorted through splits" 0 (Atomic.get bad);
  Alcotest.(check bool) "splits did happen" true (Db.chunk_count db > 2);
  Db.close db

let concurrent_checkpoints () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to 999 do
          Db.put db (key i) "v"
        done)
  in
  for _ = 1 to 5 do
    Db.checkpoint db
  done;
  Domain.join writer;
  Db.checkpoint db;
  Env.crash env;
  let db = Db.open_ ~config:tiny_config env in
  Alcotest.(check int) "final checkpoint covered everything" 1000
    (List.length (Db.scan db ~low:"" ~high:"zzzz" ()));
  Db.close db

(* ---- Pending_ops primitives ---- *)

let po_put_protocol () =
  let po = Pending_ops.create ~slots:4 () in
  let slot = Pending_ops.begin_put po ~key:"k" in
  (* A scan waiting on this range must block until the put finishes. *)
  let released = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        Pending_ops.wait_pending_puts po ~low:"a" ~high:(Some "z") ~upto:100;
        Atomic.get released)
  in
  Thread.delay 0.05;
  Pending_ops.publish_put_version po slot ~key:"k" ~version:50;
  Thread.delay 0.05;
  Atomic.set released true;
  Pending_ops.finish po slot;
  Alcotest.(check bool) "waiter blocked until finish" true (Domain.join waiter)

let po_version_above_snapshot_not_awaited () =
  let po = Pending_ops.create ~slots:4 () in
  let slot = Pending_ops.begin_put po ~key:"k" in
  Pending_ops.publish_put_version po slot ~key:"k" ~version:200;
  (* Snapshot 100 < put version 200: no wait needed. *)
  Pending_ops.wait_pending_puts po ~low:"a" ~high:(Some "z") ~upto:100;
  Pending_ops.finish po slot

let po_disjoint_range_not_awaited () =
  let po = Pending_ops.create ~slots:4 () in
  let slot = Pending_ops.begin_put po ~key:"zz" in
  Pending_ops.wait_pending_puts po ~low:"a" ~high:(Some "m") ~upto:100;
  Pending_ops.finish po slot

let po_min_scan_version () =
  let po = Pending_ops.create ~slots:4 () in
  let s1 = Pending_ops.begin_scan po ~low:"a" ~high:(Some "m") in
  Pending_ops.publish_scan_version po s1 ~low:"a" ~high:(Some "m") ~version:42;
  Alcotest.(check int) "overlapping scan found" 42
    (Pending_ops.min_scan_version po ~low:"b" ~high:(Some "c") ~default:100);
  Alcotest.(check int) "disjoint range ignored" 100
    (Pending_ops.min_scan_version po ~low:"x" ~high:(Some "z") ~default:100);
  Alcotest.(check int) "capped at default" 42
    (Pending_ops.min_scan_version po ~low:"a" ~high:None ~default:100);
  Pending_ops.finish po s1

let po_exists_scan_between () =
  let po = Pending_ops.create ~slots:4 () in
  let s = Pending_ops.begin_scan po ~low:"a" ~high:(Some "z") in
  Pending_ops.publish_scan_version po s ~low:"a" ~high:(Some "z") ~version:10;
  Alcotest.(check bool) "scan inside window" true
    (Pending_ops.exists_scan_between po ~key:"k" ~old_version:8 ~new_version:12);
  Alcotest.(check bool) "scan below window" false
    (Pending_ops.exists_scan_between po ~key:"k" ~old_version:11 ~new_version:12);
  Alcotest.(check bool) "scan above window" false
    (Pending_ops.exists_scan_between po ~key:"k" ~old_version:5 ~new_version:10);
  Alcotest.(check bool) "key outside range" false
    (Pending_ops.exists_scan_between po ~key:"~~" ~old_version:8 ~new_version:12);
  Pending_ops.finish po s

let po_slot_exhaustion () =
  let po = Pending_ops.create ~slots:2 () in
  let s1 = Pending_ops.begin_put po ~key:"a" in
  let s2 = Pending_ops.begin_put po ~key:"b" in
  (* Third acquisition must block until a slot frees. *)
  let acquired = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let s3 = Pending_ops.begin_put po ~key:"c" in
        Atomic.set acquired true;
        Pending_ops.finish po s3)
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "blocked while full" false (Atomic.get acquired);
  Pending_ops.finish po s1;
  Domain.join d;
  Alcotest.(check bool) "acquired after release" true (Atomic.get acquired);
  Pending_ops.finish po s2

let split_eviction_stress () =
  (* Regression for the split/eviction race: concurrent writers force
     splits while the small munk cache forces evictions of freshly
     split chunks (previously corrupted the chunk index or hit the
     phase-2 assert). *)
  let env = Env.memory () in
  let config = { tiny_config with Config.munk_cache_capacity = 2 } in
  let db = Db.open_ ~config env in
  let n = 3000 in
  let domains =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            (* Each domain covers all 1500 keys, in a different order. *)
            for i = 0 to n - 1 do
              Db.put db (key ((i * ((6 * d) + 7)) mod 1500)) (Printf.sprintf "d%d-%d" d i)
            done))
  in
  List.iter Domain.join domains;
  (* Index integrity: scan sees each key exactly once, sorted. *)
  let r = Db.scan db ~low:"" ~high:"zzzz" () in
  let keys = List.map fst r in
  Alcotest.(check bool) "sorted" true (List.sort compare keys = keys);
  Alcotest.(check int) "no duplicates" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool) "all keys present" true (List.length keys = 1500);
  Db.close db

let suite =
  [
    ( "concurrency",
      [
        Alcotest.test_case "parallel disjoint puts" `Quick parallel_disjoint_puts;
        Alcotest.test_case "split/eviction stress" `Quick split_eviction_stress;
        Alcotest.test_case "contended same-key puts" `Quick parallel_same_keys;
        Alcotest.test_case "wait-free readers during writes" `Quick readers_during_writes;
        Alcotest.test_case "atomic scan pair invariant" `Quick scan_snapshot_monotone_pair;
        Alcotest.test_case "scans during splits" `Quick scans_during_splits;
        Alcotest.test_case "checkpoints under write load" `Quick concurrent_checkpoints;
      ] );
    ( "pending_ops",
      [
        Alcotest.test_case "put protocol blocking" `Quick po_put_protocol;
        Alcotest.test_case "newer put not awaited" `Quick po_version_above_snapshot_not_awaited;
        Alcotest.test_case "disjoint put not awaited" `Quick po_disjoint_range_not_awaited;
        Alcotest.test_case "min scan version" `Quick po_min_scan_version;
        Alcotest.test_case "exists_scan_between" `Quick po_exists_scan_between;
        Alcotest.test_case "slot exhaustion blocks" `Quick po_slot_exhaustion;
      ] );
  ]

let background_maintenance () =
  (* The paper's background threads: rebalances run on a maintainer
     domain; data stays intact and splits still happen. *)
  let env = Env.memory () in
  let config = { tiny_config with Config.background_maintenance = true } in
  let db = Db.open_ ~config env in
  let n = 3000 in
  let writers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to (n / 2) - 1 do
              Db.put db (key ((d * n / 2) + i)) (String.make 64 'v')
            done))
  in
  List.iter Domain.join writers;
  (* Give the maintainer a moment, then force quiescence. *)
  Db.maintain db;
  Alcotest.(check bool) "splits happened" true (Db.chunk_count db > 2);
  for i = 0 to n - 1 do
    if Db.get db (key i) = None then Alcotest.failf "lost %s" (key i)
  done;
  Db.close db;
  (* close is idempotent and the maintainer is stopped *)
  Db.close db

let is_funk name ext =
  String.length name > 5 && String.sub name 0 5 = "funk_" && Filename.check_suffix name ext

let counter db name = Evendb_obs.Obs.Counter.get (Evendb_obs.Obs.counter (Db.obs db) name)

(* Poll [cond] for up to ten seconds. *)
let wait_for what cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

(* A cold funk rebalance records the log's end, merges the funk, then
   diverts the records appended from that end on into the new funk. A
   put landing between the end read and the merge's log read must
   reach the new funk once, not through both. The backend runs that
   put from inside the merge's first size query of a funk log; a record
   copied twice shows up as a duplicate entry when the next cold
   rebalance rebuilds the funk. The body runs on a fresh domain: the
   munk cache samples every eighth access of a domain, and the few
   puts after the eviction must not admit the chunk's munk back. *)
let cold_rebalance_put_race () =
  let (Backend.B (module Inner)) = Backend.memory () in
  let hook = ref None in
  let backend =
    Backend.B
      (module struct
        include Inner

        let size name =
          (match !hook with
          | Some f when is_funk name ".log" ->
            hook := None;
            f ()
          | _ -> ());
          Inner.size name
      end)
  in
  let db = Db.open_ ~config:tiny_config (Env.of_backend backend) in
  let expect = Hashtbl.create 64 in
  let put k v =
    Db.put db k v;
    Hashtbl.replace expect k v
  in
  let raced = ref false in
  Domain.join
    (Domain.spawn (fun () ->
         for i = 0 to 39 do
           put (key i) (String.make 40 'a')
         done;
         ignore (Db.evict_munk db (key 0));
         (* Retain versions above the checkpoint, so a duplicated
            record survives compaction. *)
         Db.checkpoint db;
         let merges = counter db "funk.merges" in
         hook :=
           Some
             (fun () ->
               put "key_race" "raced";
               raced := true);
         (* Each put overflows the cold log limit on its own. *)
         put (key 1) (String.make 2500 'b');
         Alcotest.(check int) "first cold rebalance" (merges + 1) (counter db "funk.merges");
         put (key 2) (String.make 2500 'c');
         Alcotest.(check int) "second cold rebalance" (merges + 2) (counter db "funk.merges")));
  Alcotest.(check bool) "a put raced the merge" true !raced;
  Alcotest.(check int) "chunk stayed cold" 0 (Db.munk_count db);
  Hashtbl.iter (fun k v -> Alcotest.(check (option string)) k (Some v) (Db.get db k)) expect;
  Db.close db

(* A cold funk rebalance merges the funk it pinned without the chunk's
   lock, then installs its result under the lock. If meanwhile the
   chunk's munk was loaded and evicted again, and the eviction flushed
   it into a new funk, puts since then live only in that funk's log:
   the rebalance must give way, not replace the new funk with its
   merge of the old one. The backend runs the load, the flushing
   eviction and a put from inside the merge's first size query of a
   funk log. Like the test above, the body runs on a fresh domain so
   that the munk cache samples a known access. *)
let cold_rebalance_flush_race () =
  let (Backend.B (module Inner)) = Backend.memory () in
  let hook = ref None in
  let backend =
    Backend.B
      (module struct
        include Inner

        let size name =
          (match !hook with
          | Some f when is_funk name ".log" ->
            hook := None;
            f ()
          | _ -> ());
          Inner.size name
      end)
  in
  let db = Db.open_ ~config:tiny_config (Env.of_backend backend) in
  let expect = Hashtbl.create 64 in
  let put k v =
    Db.put db k v;
    Hashtbl.replace expect k v
  in
  let raced = ref false in
  Domain.join
    (Domain.spawn (fun () ->
         for i = 0 to 39 do
           put (key i) (String.make 40 'a')
         done;
         ignore (Db.evict_munk db (key 0));
         hook :=
           Some
             (fun () ->
               (* The munk cache is empty: a sampled get loads the
                  munk. *)
               let tries = ref 0 in
               while Db.munk_count db = 0 && !tries < 16 do
                 ignore (Db.get db (key 3));
                 incr tries
               done;
               Alcotest.(check int) "munk loaded mid-merge" 1 (Db.munk_count db);
               (* The log is over the cold limit, so this eviction
                  flushes the munk into a new funk. *)
               let flushes = counter db "funk.flushes" in
               Alcotest.(check bool) "evicted" true (Db.evict_munk db (key 0));
               Alcotest.(check int) "eviction flushed" (flushes + 1) (counter db "funk.flushes");
               put "key_race" "raced";
               raced := true);
         (* Overflows the cold log limit on its own. *)
         put (key 1) (String.make 2500 'b')));
  Alcotest.(check bool) "the load, flush and put raced the merge" true !raced;
  Hashtbl.iter (fun k v -> Alcotest.(check (option string)) k (Some v) (Db.get db k)) expect;
  Db.close db

(* An exception the maintainer does not expect is counted in
   [maint.failures]; the domain keeps serving later chunks. *)
let maintainer_survives_failure () =
  let (Backend.B (module Inner)) = Backend.memory () in
  let armed = Atomic.make false in
  let backend =
    Backend.B
      (module struct
        include Inner

        let create name =
          if is_funk name ".sst" && Atomic.compare_and_set armed true false then
            failwith "injected maintenance defect";
          Inner.create name
      end)
  in
  let config = { tiny_config with Config.background_maintenance = true } in
  let db = Db.open_ ~config (Env.of_backend backend) in
  Atomic.set armed true;
  let i = ref 0 in
  while counter db "maint.failures" = 0 && !i < 3000 do
    Db.put db (key !i) (String.make 64 'v');
    incr i
  done;
  wait_for "the injected failure" (fun () -> counter db "maint.failures" = 1);
  let chunks = Db.chunk_count db in
  for j = !i to !i + 2999 do
    Db.put db (key j) (String.make 64 'v')
  done;
  wait_for "later maintenance" (fun () -> Db.chunk_count db > chunks + 1);
  Alcotest.(check int) "one failure counted" 1 (counter db "maint.failures");
  for j = 0 to !i + 2999 do
    if Db.get db (key j) = None then Alcotest.failf "lost %s" (key j)
  done;
  Db.close db

let suite =
  suite
  @ [
      ( "background_maintenance",
        [
          Alcotest.test_case "maintainer domain" `Quick background_maintenance;
          Alcotest.test_case "maintainer survives a failure" `Quick maintainer_survives_failure;
          Alcotest.test_case "put between log end and merge" `Quick cold_rebalance_put_race;
          Alcotest.test_case "munk flushed during a cold merge" `Quick cold_rebalance_flush_race;
        ] );
    ]
