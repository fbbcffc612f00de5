(* Config.validate: the open-time front door rejects nonsense knobs
   with a telling message instead of letting them wedge the store
   (a zero group-commit batch would deadlock every sync put; an empty
   munk cache could never admit a chunk). *)

open Evendb_core
open Evendb_storage

let default_validates () = Config.validate Config.default

let rejects name cfg =
  Alcotest.test_case name `Quick (fun () ->
      match Config.validate cfg with
      | () -> Alcotest.failf "%s: expected Invalid_argument" name
      | exception Invalid_argument msg ->
        let prefix = "Config.validate:" in
        Alcotest.(check bool)
          (name ^ ": message identifies the validator")
          true
          (String.length msg >= String.length prefix
          && String.sub msg 0 (String.length prefix) = prefix))

let open_rejects_invalid () =
  let config = { Config.default with group_commit_max_batch = 0 } in
  match Db.open_ ~config (Env.memory ()) with
  | _ -> Alcotest.fail "Db.open_ accepted an invalid config"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ( "config",
      [
        Alcotest.test_case "default validates" `Quick default_validates;
        Alcotest.test_case "Db.open_ runs validate" `Quick open_rejects_invalid;
        rejects "zero group-commit batch"
          { Config.default with group_commit_max_batch = 0 };
        rejects "negative group-commit batch"
          { Config.default with group_commit_max_batch = -4 };
        rejects "zero chunk size" { Config.default with max_chunk_bytes = 0 };
        rejects "zero munk cache" { Config.default with munk_cache_capacity = 0 };
        rejects "negative checkpoint interval"
          { Config.default with checkpoint_every_puts = -1 };
        rejects "negative snapshot retention"
          { Config.default with snapshot_max_retained = -1 };
        rejects "zero replication window" { Config.default with repl_window = 0 };
        rejects "negative replication backoff"
          { Config.default with repl_retry_backoff_ns = -1 };
      ] );
  ]
