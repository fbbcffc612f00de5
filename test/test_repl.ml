(* Replication change-stream, follower and failover (ISSUE 9).

   - the commit-hook tap publishes acked writes with dense LSNs and the
     per-key supersede filter keeps only the newest emission;
   - shipping across a faulty link retries to convergence (counters
     prove both the faults and the retries happened);
   - the watermark makes redelivery idempotent and survives reopen;
   - a corrupt watermark is a typed corruption, not garbage state;
   - promote fences the old primary (writes raise [Db.Fenced]) and the
     promoted replica equals the primary's state. *)

open Evendb_storage
module Db = Evendb_core.Db
module Config = Evendb_core.Config
module Repl = Evendb_repl.Repl
module Obs = Evendb_obs.Obs

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
    repl_window = 8;
    repl_retry_backoff_ns = 0;
  }

let key_of i = Printf.sprintf "k%04d" i
let scan db = Db.scan db ~low:"" ~high:"zzzz" ()

let stream_tap_and_supersede () =
  let source = Repl.Source.create () in
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  Repl.Source.attach source db;
  Db.put db "a" "1";
  Db.put db "b" "2";
  Db.put db "a" "3";
  Db.delete db "b";
  Alcotest.(check int) "dense LSNs" 4 (Repl.Source.head_lsn source);
  let records = Repl.Source.from source ~after:0 ~max:100 in
  Alcotest.(check (list int)) "stream order" [ 1; 2; 3; 4 ]
    (List.map (fun (r : Repl.record) -> r.Repl.lsn) records);
  Alcotest.(check (list (pair string (option string))))
    "keys and values" [ ("a", Some "1"); ("b", Some "2"); ("a", Some "3"); ("b", None) ]
    (List.map (fun (r : Repl.record) -> (r.Repl.key, r.Repl.value)) records);
  (* Detached: no further records. *)
  Repl.Source.detach db;
  Db.put db "c" "9";
  Alcotest.(check int) "detached tap emits nothing" 4 (Repl.Source.head_lsn source);
  Db.close db

let ship_over_faulty_link () =
  let source = Repl.Source.create () in
  let penv = Env.memory () in
  let pdb = Db.open_ ~config penv in
  Repl.Source.attach source pdb;
  let renv = Env.memory () in
  let follower = Repl.Follower.open_ ~config renv in
  let link = Repl.Link.create ~fault_seed:3 ~fault_rate_ppm:300_000 () in
  let ship = Repl.Ship.create ~config source follower link in
  for i = 0 to 149 do
    Db.put pdb (key_of (i mod 40)) (Printf.sprintf "v%04d" i);
    if i mod 7 = 0 then Db.delete pdb (key_of (i mod 13));
    if i mod 5 = 0 then Repl.Ship.pump ship
  done;
  Repl.Ship.pump ship;
  Alcotest.(check int) "no lag after pump" 0 (Repl.Ship.lag ship);
  Alcotest.(check (list (pair string string)))
    "replica converges with the primary" (scan pdb)
    (scan (Repl.Follower.db follower));
  Alcotest.(check bool) "faults were injected" true (Repl.Link.failures link > 0);
  let count name = Obs.Counter.get (Obs.counter (Db.obs (Repl.Follower.db follower)) name) in
  Alcotest.(check bool) "retries counted" true (count "repl.retries" > 0);
  Alcotest.(check bool) "records shipped counted" true (count "repl.records_shipped" > 0);
  Repl.Follower.close follower;
  Db.close pdb

let watermark_idempotent () =
  let renv = Env.memory () in
  let follower = Repl.Follower.open_ ~config renv in
  let r lsn v : Repl.record =
    { Repl.lsn; key = "k"; value = Some v; version = lsn; counter = 0 }
  in
  Repl.Follower.apply follower (r 1 "one");
  Repl.Follower.apply follower (r 2 "two");
  (* Redelivery at or below the watermark is a no-op. *)
  Repl.Follower.apply follower (r 1 "stale");
  Repl.Follower.apply follower (r 2 "stale");
  Alcotest.(check int) "watermark" 2 (Repl.Follower.applied_lsn follower);
  Alcotest.(check (option string)) "state" (Some "two") (Db.get (Repl.Follower.db follower) "k");
  Repl.Follower.close follower;
  (* The watermark survives reopen. *)
  let follower = Repl.Follower.open_ ~config renv in
  Alcotest.(check int) "watermark after reopen" 2 (Repl.Follower.applied_lsn follower);
  Repl.Follower.close follower

let corrupt_watermark_is_typed () =
  let renv = Env.memory () in
  let follower = Repl.Follower.open_ ~config renv in
  Repl.Follower.apply follower
    { Repl.lsn = 1; key = "k"; value = Some "v"; version = 1; counter = 0 };
  Repl.Follower.close follower;
  let data = Env.read_all renv Evendb_core.Layout.repl_lsn_file in
  let b = Bytes.of_string data in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5A));
  Env.delete renv Evendb_core.Layout.repl_lsn_file;
  let f = Env.create renv Evendb_core.Layout.repl_lsn_file in
  Env.append f (Bytes.to_string b);
  Env.close_file f;
  match Repl.Follower.load_watermark renv with
  | _ -> Alcotest.fail "corrupt watermark loaded"
  | exception Env.Corruption _ -> ()

let promote_and_fence () =
  let source = Repl.Source.create () in
  let penv = Env.memory () in
  let pdb = Db.open_ ~config penv in
  Repl.Source.attach source pdb;
  let renv = Env.memory () in
  let follower = Repl.Follower.open_ ~config renv in
  for i = 0 to 79 do
    Db.put pdb (key_of i) (Printf.sprintf "v%04d" i)
  done;
  (* Ship only part of the stream: promotion must close the gap from
     the primary's durable state. *)
  let batch = Repl.Source.from source ~after:0 ~max:40 in
  List.iter (fun r -> Repl.Follower.apply follower r) batch;
  let expected = scan pdb in
  let promoted = Repl.promote ~primary:pdb follower in
  Alcotest.(check (list (pair string string)))
    "promoted equals the deposed primary" expected (scan promoted);
  (match Db.put pdb "x" "y" with
  | () -> Alcotest.fail "fenced primary accepted a write"
  | exception Db.Fenced -> ());
  Alcotest.(check bool) "fenced flag" true (Db.fenced pdb);
  (* Promotion removed follower state: direct writes now apply. *)
  Alcotest.(check bool) "follower marker gone" false (Env.exists renv Evendb_core.Layout.follower_file);
  Alcotest.(check bool) "watermark gone" false (Env.exists renv Evendb_core.Layout.repl_lsn_file);
  Db.put promoted "direct" "write";
  Alcotest.(check (option string)) "promoted accepts writes" (Some "write")
    (Db.get promoted "direct");
  let count name = Obs.Counter.get (Obs.counter (Db.obs promoted) name) in
  Alcotest.(check int) "failover counted" 1 (count "repl.failovers");
  (* The fence survives reopen. *)
  Db.close pdb;
  let pdb = Db.open_ ~config penv in
  (match Db.put pdb "x" "y" with
  | () -> Alcotest.fail "fence lost across reopen"
  | exception Db.Fenced -> ());
  Db.unfence pdb;
  Db.put pdb "x" "y";
  Db.close pdb;
  Db.close promoted

let suite =
  [
    ( "repl",
      [
        Alcotest.test_case "stream tap, dense LSNs, supersede" `Quick stream_tap_and_supersede;
        Alcotest.test_case "ship over a faulty link" `Quick ship_over_faulty_link;
        Alcotest.test_case "watermark idempotent, survives reopen" `Quick watermark_idempotent;
        Alcotest.test_case "corrupt watermark is typed" `Quick corrupt_watermark_is_typed;
        Alcotest.test_case "promote and fence" `Quick promote_and_fence;
      ] );
  ]
