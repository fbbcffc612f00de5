(* Group commit (sync durability at core scale): concurrent sync puts
   share fsyncs without ever weakening the contract — an acked put is
   durable at every crash point, a batch whose fsync fails surfaces the
   typed error to every member, and batch-of-1 degenerates to exactly
   the old per-op fsync behaviour. *)

open Evendb_storage
open Evendb_core
module Obs = Evendb_obs.Obs
module Attr = Evendb_obs.Attr

let sync_config =
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

let counter_value snap name =
  match List.assoc_opt name snap.Obs.metrics with
  | Some (Obs.Counter n) -> n
  | _ -> Alcotest.failf "missing counter %s" name

let timer_summary snap name =
  match List.assoc_opt name snap.Obs.metrics with
  | Some (Obs.Timer t) -> t
  | _ -> Alcotest.failf "missing timer %s" name

(* ------------------------------------------------------------------ *)
(* Acked => durable under concurrency, at every crash point.           *)

let key d i = Printf.sprintf "d%d-k%03d" d i
let value d i = Printf.sprintf "val-%d-%03d" d i

let concurrent_acked_durable () =
  let journal, packed = Backend.journaled_memory () in
  let env = Env.of_backend packed in
  let db = Db.open_ ~config:sync_config env in
  let domains = 4 and per_domain = 40 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Db.put db (key d i) (value d i)
            done))
  in
  List.iter Domain.join workers;
  (* Every put above acked in sync mode, so its covering fsync is in
     the journal by now: crashing at the final prefix must keep all. *)
  let total = Backend.journal_length journal in
  let check_at k ~require_all =
    let env_k = Env.of_backend (Backend.replay_prefix journal k) in
    let db_k = Db.open_ ~config:sync_config env_k in
    for d = 0 to domains - 1 do
      for i = 0 to per_domain - 1 do
        match Db.get db_k (key d i) with
        | None ->
          if require_all then
            Alcotest.failf "acked %s missing at final crash point" (key d i)
        | Some v ->
          (* Each key is written exactly once: any surviving value must
             be the one written — never torn, never someone else's. *)
          if v <> value d i then
            Alcotest.failf "@%d: %s holds torn/foreign value %S" k (key d i) v
      done
    done;
    Db.close db_k
  in
  check_at total ~require_all:true;
  (* Mid-batch crash points: recovery must never fail and never serve
     a value that was not written (a torn group-commit tail must fall
     off the log, not surface). Stride keeps the sweep fast; the
     exhaustive single-threaded sweep lives in the crash explorer. *)
  let stride = max 1 (total / 50) in
  let k = ref 0 in
  while !k < total do
    check_at !k ~require_all:false;
    k := !k + stride
  done;
  (* Commit accounting: every sync put is a batch member exactly once,
     every batch fsyncs at least one log, and saved = members - fsyncs. *)
  let snap = Obs.snapshot (Db.obs db) in
  let puts = domains * per_domain in
  let batches = counter_value snap "commit.batches" in
  let fsyncs = counter_value snap "commit.fsyncs" in
  let saved = counter_value snap "commit.fsyncs_saved" in
  let sizes = timer_summary snap "commit.batch_size" in
  Alcotest.(check bool) "at least one batch" true (batches >= 1);
  Alcotest.(check bool) "no more batches than puts" true (batches <= puts);
  Alcotest.(check bool) "every batch fsynced something" true (fsyncs >= batches);
  Alcotest.(check int) "members = fsyncs + saved" puts (fsyncs + saved);
  Alcotest.(check int) "one size sample per batch" batches sizes.Obs.t_count;
  Db.close db

(* ------------------------------------------------------------------ *)
(* max_batch = 1 degenerates to per-op fsync.                          *)

let batch_of_one_degenerates () =
  let config = { sync_config with group_commit_max_batch = 1 } in
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  let workers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 29 do
              Db.put db (key d i) (value d i)
            done))
  in
  List.iter Domain.join workers;
  let snap = Obs.snapshot (Db.obs db) in
  Alcotest.(check int) "one batch per put" 90 (counter_value snap "commit.batches");
  Alcotest.(check int) "one fsync per put" 90 (counter_value snap "commit.fsyncs");
  Alcotest.(check int) "nothing saved" 0 (counter_value snap "commit.fsyncs_saved");
  Alcotest.(check int) "no batch ever exceeded 1"
    1
    (timer_summary snap "commit.batch_size").Obs.t_max_ns;
  Env.crash env;
  let db2 = Db.open_ ~config env in
  for d = 0 to 2 do
    for i = 0 to 29 do
      Alcotest.(check (option string))
        (key d i) (Some (value d i))
        (Db.get db2 (key d i))
    done
  done;
  Db.close db2;
  Db.close db

(* ------------------------------------------------------------------ *)
(* A failing batch fsync surfaces to every member as the typed error.  *)

let flaky_fsync_backend () =
  let armed = Atomic.make false in
  let (Backend.B (module Inner)) = Backend.memory () in
  let packed =
    Backend.B
      (module struct
        include Inner

        let fsync h =
          if Atomic.get armed then
            Io_error.raise_io ~op:"fsync" ~file:"<log>" ~detail:"injected fsync failure"
          else Inner.fsync h
      end)
  in
  (armed, packed)

let fsync_error_fans_out () =
  let armed, packed = flaky_fsync_backend () in
  (* Default (large) thresholds: nothing but the sync path fsyncs
     during this tiny workload, so every failure is a commit failure. *)
  let config = { Config.default with persistence = Config.Sync } in
  let env = Env.of_backend packed in
  let db = Db.open_ ~config env in
  Db.put db "seed" "v0";
  Atomic.set armed true;
  let outcomes = Array.make 4 `Pending in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            outcomes.(d) <-
              (try
                 Db.put db (Printf.sprintf "armed-%d" d) "doomed";
                 `Acked
               with
              | Env.Io_error _ -> `Io_error
              | exn -> `Other (Printexc.to_string exn))))
  in
  List.iter Domain.join workers;
  Array.iteri
    (fun d o ->
      match o with
      | `Io_error -> ()
      | `Acked -> Alcotest.failf "writer %d acked while fsync was failing" d
      | `Other e -> Alcotest.failf "writer %d got untyped error %s" d e
      | `Pending -> Alcotest.failf "writer %d never finished" d)
    outcomes;
  (* The committer must recover once the device does: the next batch
     leads, fsyncs and acks normally, and pre-fault data is intact. *)
  Atomic.set armed false;
  Db.put db "after" "v1";
  Alcotest.(check (option string)) "pre-fault key" (Some "v0") (Db.get db "seed");
  Alcotest.(check (option string)) "post-fault key" (Some "v1") (Db.get db "after");
  Db.close db

(* ------------------------------------------------------------------ *)
(* The formation wait is worth one fsync: it still coalesces writers   *)
(* when fsyncs are slow and never waits when they are cheap.           *)

(* A memory device whose fsync takes [delay] seconds. *)
let slow_fsync_backend ~delay =
  let (Backend.B (module Inner)) = Backend.memory () in
  Backend.B
    (module struct
      include Inner

      let fsync h =
        Unix.sleepf delay;
        Inner.fsync h
    end)

let coalesces_on_slow_fsync () =
  let config = { Config.default with persistence = Config.Sync } in
  let db = Db.open_ ~config (Env.of_backend (slow_fsync_backend ~delay:1.5e-3)) in
  let domains = 4 and per_domain = 50 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Db.put db (key d i) (value d i)
            done))
  in
  List.iter Domain.join workers;
  let puts = domains * per_domain in
  let snap = Obs.snapshot (Db.obs db) in
  let fsyncs = counter_value snap "commit.fsyncs" in
  (* A 1.5ms fsync costs far more than waking a parked member, so no
     writer ever fsyncs alone. *)
  Alcotest.(check int) "no direct fsyncs" 0 (counter_value snap "commit.direct_fsyncs");
  (* Four writers against a 1.5ms fsync: the leader's budget is one
     fsync, ample for the cohort to append and join, so batches span
     most of it (about 0.26 fsyncs per put). Committing with no
     formation wait measures 0.4 to 0.9. *)
  if fsyncs * 3 > puts then
    Alcotest.failf "%d fsyncs for %d puts: batches stopped coalescing" fsyncs puts;
  for d = 0 to domains - 1 do
    Alcotest.(check (option string)) (key d 0) (Some (value d 0)) (Db.get db (key d 0))
  done;
  Db.close db

(* On a memory device an fsync costs less than waking a parked member,
   so once wake-ups have been measured the writers fsync their own logs
   directly instead of parking in batches. Two stores share one
   committer, the sharded front end's topology. The writers first
   share one store's log, where they join each other's batches and
   park; then each writes its own store, so that neither writer's
   fsync waits on the other's appends to the same file. *)
let cheap_fsync_stops_parking () =
  let obs = Obs.create () in
  let committer = Group_commit.create ~max_batch:64 obs in
  let env = Env.memory () in
  let config = { Config.default with persistence = Config.Sync } in
  let dbs = Array.init 2 (fun d -> Db.open_ ~config ~committer (Env.sub env ~prefix:(Printf.sprintf "s%d." d))) in
  let counters () =
    let snap = Obs.snapshot obs in
    (counter_value snap "commit.direct_fsyncs", counter_value snap "commit.batches")
  in
  let run ~shared round n =
    let workers =
      List.init 2 (fun d ->
          Domain.spawn (fun () ->
              for i = 0 to n - 1 do
                Db.put dbs.(if shared then 0 else d) (Printf.sprintf "r%d-d%d-%05d" round d i) "v"
              done))
    in
    List.iter Domain.join workers
  in
  (* Alternate a shared round, in which the writers join each other's
     batches, park and measure their wake-ups, with a round on separate
     logs, until most of a separate round's puts fsync directly. It
     normally takes one or two; a host busy enough to stretch fsyncs
     (a descheduled or collecting writer) turns batching back on for a
     while, and the next shared round measures wake-ups again. *)
  let rec settle round =
    run ~shared:true round 500;
    let direct0, batches0 = counters () in
    run ~shared:false (round + 1) 1000;
    let direct1, batches1 = counters () in
    let direct = direct1 - direct0 and batches = batches1 - batches0 in
    if direct * 2 >= 2000 then (round + 1, direct, batches)
    else if round >= 40 then
      Alcotest.failf "only %d of 2000 puts fsynced directly after %d shared rounds" direct
        ((round / 2) + 1)
    else settle (round + 2)
  in
  let last, direct, batches = settle 0 in
  Alcotest.(check bool) "every direct fsync is counted as a batch" true (batches >= direct);
  let snap = Obs.snapshot obs in
  Alcotest.(check int)
    "members = fsyncs + saved"
    ((last + 1) * 1500)
    (counter_value snap "commit.fsyncs" + counter_value snap "commit.fsyncs_saved");
  Array.iteri
    (fun d db ->
      Alcotest.(check (option string)) "last put" (Some "v") (Db.get db (Printf.sprintf "r%d-d%d-00999" last d));
      Db.close db)
    dbs

(* A memory device on which every append by the domain recorded in
   [stalled] blocks while [latched] is set; [entered] reports that the
   stalled domain is parked there. *)
let latch_backend () =
  let stalled = Atomic.make (-1) and latched = Atomic.make true and entered = Atomic.make false in
  let (Backend.B (module Inner)) = Backend.memory () in
  let packed =
    Backend.B
      (module struct
        include Inner

        let append h b ~pos ~len =
          if (Domain.self () :> int) = Atomic.get stalled then begin
            Atomic.set entered true;
            while Atomic.get latched do
              Unix.sleepf 1e-4
            done
          end;
          Inner.append h b ~pos ~len
      end)
  in
  (stalled, latched, entered, packed)

let fast_fsync_never_waits () =
  let stalled, latched, entered, packed = latch_backend () in
  (* Small chunks, so the preload splits the store and the two writers
     below work on different chunks and funk logs; a munk cache large
     enough that no eviction needs the stalled writer's chunk lock. *)
  let config = { sync_config with munk_cache_capacity = 64 } in
  let db = Db.open_ ~config (Env.of_backend packed) in
  let filler = String.make 200 'f' in
  for i = 0 to 199 do
    Db.put db (Printf.sprintf "k%04d" i) filler
  done;
  Alcotest.(check bool) "preload split the store" true (Db.chunk_count db >= 2);
  (* Writer B enters a sync put and parks inside its log append: it is
     tracked as in flight, so every batch leader below counts it in
     its target, but it never joins. *)
  let b =
    Domain.spawn (fun () ->
        Atomic.set stalled (Domain.self () :> int);
        Db.put db "a-stalled" "b")
  in
  while not (Atomic.get entered) do
    Unix.sleepf 1e-4
  done;
  (* Writer A: 100 sync puts on the last chunk. Each is a leader whose
     target (A and B) never fills; a fixed 400µs formation wait made
     this take at least 40ms. A memory fsync costs about a microsecond,
     less than one poll sleep, so A should commit each batch at once. *)
  let t0 = Obs.now_ns () in
  for i = 0 to 99 do
    Db.put db (Printf.sprintf "z%03d" i) "a"
  done;
  let elapsed_ms = float_of_int (Obs.now_ns () - t0) /. 1e6 in
  Atomic.set latched false;
  Domain.join b;
  if elapsed_ms >= 20. then
    Alcotest.failf "100 puts took %.1fms waiting for a writer that never joined" elapsed_ms;
  Alcotest.(check (option string)) "stalled writer acked" (Some "b") (Db.get db "a-stalled");
  Alcotest.(check (option string)) "last fast put" (Some "a") (Db.get db "z099");
  Db.close db

(* ------------------------------------------------------------------ *)
(* Crash-point exploration over an explicitly multi-member committer.  *)

module Gc_engine : Evendb_check.Crash_explorer.ENGINE = struct
  type t = Db.t

  let name = "evendb-sync-gc8"

  let config = { sync_config with group_commit_max_batch = 8 }

  let open_ env = Db.open_ ~config env
  let close = Db.close
  let put = Db.put
  let delete = Db.delete
  let get = Db.get
  let scan t ~low ~high = Db.scan t ~low ~high ()
  let barrier = Db.checkpoint
  let durable_on_ack = true
end

let explorer_covers_group_commit mode () =
  let r = Evendb_check.Crash_explorer.explore (module Gc_engine) ~ops:120 ~mode () in
  if r.Evendb_check.Crash_explorer.violations <> [] then begin
    Format.eprintf "%a" Evendb_check.Crash_explorer.pp_result r;
    let k, msg = List.hd r.Evendb_check.Crash_explorer.violations in
    Alcotest.failf "@%d: %s" k msg
  end

let commit_wait_cause_exported () =
  Alcotest.(check bool)
    "commit_wait is an attribution cause" true
    (List.exists (fun c -> Attr.cause_name c = "commit_wait") Attr.all_causes)

let suite =
  [
    ( "group_commit",
      [
        Alcotest.test_case "concurrent acked => durable" `Quick concurrent_acked_durable;
        Alcotest.test_case "batch of 1 = per-op fsync" `Quick batch_of_one_degenerates;
        Alcotest.test_case "fsync error fans out to all members" `Quick
          fsync_error_fans_out;
        Alcotest.test_case "coalesces on a slow fsync" `Quick coalesces_on_slow_fsync;
        Alcotest.test_case "a cheap fsync stops parking" `Quick cheap_fsync_stops_parking;
        Alcotest.test_case "a fast fsync never waits for a stalled writer" `Quick
          fast_fsync_never_waits;
        Alcotest.test_case "crash explorer: drop" `Slow
          (explorer_covers_group_commit Backend.Drop_unsynced);
        Alcotest.test_case "crash explorer: reorder" `Slow
          (explorer_covers_group_commit (Backend.Reorder_unsynced 7));
        Alcotest.test_case "commit_wait cause exported" `Quick commit_wait_cause_exported;
      ] );
  ]
