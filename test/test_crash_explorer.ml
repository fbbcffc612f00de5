(* Exhaustive crash-point exploration (PR 4).

   For every engine and both crash models, run a mixed workload on the
   journaled backend and recover at EVERY journal prefix, checking the
   persistence contract (acked+synced present, no resurrected deletes,
   scans sorted and bounded, store usable, scrub clean). The workload
   size and the reorder-seed matrix widen via environment variables:

     CRASH_EXPLORER_OPS            ops per run (default 200)
     CRASH_EXPLORER_REORDER_SEEDS  comma-separated seeds (default "7")

   The replication pair harness (primary + follower, crash either side
   at every crash point, promote / resume and re-verify) scales the
   same way:

     REPL_SOAK_OPS    ops per pair run (default 60)
     REPL_SOAK_SEEDS  comma-separated seeds (default "1") *)

open Evendb_storage
open Evendb_check

let ops =
  match Sys.getenv_opt "CRASH_EXPLORER_OPS" with
  | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

let reorder_seeds =
  match Sys.getenv_opt "CRASH_EXPLORER_REORDER_SEEDS" with
  | None | Some "" -> [ 7 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

let modes =
  Backend.Drop_unsynced :: List.map (fun s -> Backend.Reorder_unsynced s) reorder_seeds

let pair_ops =
  match Sys.getenv_opt "REPL_SOAK_OPS" with
  | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> 60)
  | None -> 60

let pair_seeds =
  match Sys.getenv_opt "REPL_SOAK_SEEDS" with
  | None | Some "" -> [ 1 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

let check_contract ?keys engine mode () =
  let r = Crash_explorer.explore engine ~ops ?keys ~mode () in
  if r.Crash_explorer.violations <> [] then begin
    Format.eprintf "%a" Crash_explorer.pp_result r;
    let k, msg = List.hd r.Crash_explorer.violations in
    Alcotest.failf "%d violations; first @%d: %s"
      (List.length r.Crash_explorer.violations)
      k msg
  end;
  Alcotest.(check bool) "explored more prefixes than ops" true (r.Crash_explorer.crash_points > ops)

(* The EvenDB rows explore a key space wide enough for chunks to split
   (at the default 24 keys none ever does, and the split's crash windows
   go unexplored), and check that the explored workload really split. *)
let split_keys = 300

let check_splitting_contract (module E : Crash_explorer.ENGINE with type t = Evendb_core.Db.t)
    mode () =
  let workload = ref None in
  let module Probe = struct
    include E

    (* The first store opened runs the workload; the rest are recoveries. *)
    let open_ env =
      let db = E.open_ env in
      if Option.is_none !workload then workload := Some db;
      db
  end in
  check_contract ~keys:split_keys (module Probe) mode ();
  (* The workload never runs [maintain], so chunks never merge: more
     than one chunk means a split. *)
  Alcotest.(check bool)
    "workload split" true
    (match !workload with Some db -> Evendb_core.Db.chunk_count db > 1 | None -> false)

let check_pair seed () =
  let r = Crash_explorer.explore_pair ~ops:pair_ops ~seed () in
  if r.Crash_explorer.pair_violations <> [] then begin
    Format.eprintf "%a" Crash_explorer.pp_pair_result r;
    let at, msg = List.hd r.Crash_explorer.pair_violations in
    Alcotest.failf "%d violations; first %s: %s"
      (List.length r.Crash_explorer.pair_violations)
      at msg
  end;
  Alcotest.(check bool)
    "explored both journals" true
    (r.Crash_explorer.primary_points > 0 && r.Crash_explorer.replica_points > 0)

(* The harness must have teeth: an async store whose adapter claims
   sync-mode durability (and never checkpoints) has to produce lost
   durable writes at many crash points. *)
module Lying_engine : Crash_explorer.ENGINE = struct
  open Evendb_core

  type t = Db.t

  let name = "evendb-async-lying"

  let config =
    {
      Config.default with
      persistence = Config.Async;
      max_chunk_bytes = 8 * 1024;
      munk_rebalance_bytes = 6 * 1024;
      munk_rebalance_appended = 64;
      funk_log_limit_no_munk = 2 * 1024;
      funk_log_limit_with_munk = 8 * 1024;
      munk_cache_capacity = 4;
    }

  let open_ env = Db.open_ ~config env
  let close = Db.close
  let put = Db.put
  let delete = Db.delete
  let get = Db.get
  let scan t ~low ~high = Db.scan t ~low ~high ()
  let barrier _ = ()
  let durable_on_ack = true
end

let harness_detects_lost_durability () =
  let r =
    Crash_explorer.explore
      (module Lying_engine)
      ~ops:80 ~scrub:false ~mode:Backend.Drop_unsynced ()
  in
  Alcotest.(check bool)
    "lying engine caught" true
    (List.exists
       (fun (_, msg) ->
         let has_sub sub =
           let n = String.length sub and m = String.length msg in
           let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
           at 0
         in
         has_sub "durable write lost" || has_sub "lost durable write")
       r.Crash_explorer.violations)

(* Telemetry guard on the recovery path: reopening after a crash
   repopulates spans and counters, and the full metrics reset must
   still zero every table afterwards. *)
let reset_clean_after_recovery () =
  let open Evendb_core in
  let config =
    {
      Config.default with
      max_chunk_bytes = 8 * 1024;
      munk_rebalance_bytes = 6 * 1024;
      munk_rebalance_appended = 64;
      funk_log_limit_no_munk = 2 * 1024;
      funk_log_limit_with_munk = 8 * 1024;
      munk_cache_capacity = 4;
    }
  in
  let env = Env.memory () in
  let db = Db.open_ ~config env in
  for i = 1 to 300 do
    Db.put db (Printf.sprintf "k%04d" (i mod 50)) (Printf.sprintf "v%08d" i)
  done;
  Db.checkpoint db;
  Env.crash env;
  let db = Db.open_ ~config env in
  ignore (Db.get db "k0001");
  Alcotest.(check bool)
    "recovery accumulated telemetry" true
    (Db.metrics_residue db <> []);
  Db.reset_metrics db;
  Alcotest.(check (list string)) "reset leaves no residue" [] (Db.metrics_residue db);
  Db.close db

let suite =
  let engine_cases =
    List.concat_map
      (fun (name, check) ->
        List.map
          (fun mode ->
            let label =
              Printf.sprintf "%s/%s" name
                (match mode with
                | Backend.Drop_unsynced -> "drop"
                | Backend.Reorder_unsynced s -> Printf.sprintf "reorder:%d" s)
            in
            Alcotest.test_case label `Slow (check mode))
          modes)
      (List.map
         (fun ((module E : Crash_explorer.ENGINE with type t = Evendb_core.Db.t) as engine) ->
           (E.name, check_splitting_contract engine))
         [ Crash_explorer.evendb_sync; Crash_explorer.evendb_async ]
      @ List.map
          (fun ((module E : Crash_explorer.ENGINE) as engine) -> (E.name, check_contract engine))
          [ Crash_explorer.lsm_sync; Crash_explorer.flsm_sync ])
  in
  [
    ( "crash-explorer",
      engine_cases
      @ List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "replication pair/drop seed:%d" seed)
              `Slow (check_pair seed))
          pair_seeds
      @ [
          Alcotest.test_case "harness detects lost durability" `Quick
            harness_detects_lost_durability;
          Alcotest.test_case "reset clean after recovery" `Quick reset_clean_after_recovery;
        ] );
  ]
