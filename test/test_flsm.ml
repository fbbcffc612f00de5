(* FLSM (PebblesDB-like) baseline tests: guard-partitioned levels,
   fragment appends without child rewrites, and correctness under the
   same model checks as the other engines, plus the LSM baseline's
   shared cases run on this engine. *)

open Evendb_storage
open Evendb_flsm

let qtest = QCheck_alcotest.to_alcotest

let tiny_config =
  {
    Flsm.Config.default with
    memtable_bytes = 2 * 1024;
    guard_bytes = 8 * 1024;
    max_fragments_per_guard = 3;
  }

module Flsm_engine = struct
  include Flsm

  let open_ ?wal_fsync_every env =
    let wal_fsync_every = Option.value wal_fsync_every ~default:tiny_config.wal_fsync_every in
    Flsm.open_ ~config:{ tiny_config with wal_fsync_every } env

  let level_file_counts = Flsm.fragment_counts
end

let with_db ?(config = tiny_config) f =
  let env = Env.memory () in
  let db = Flsm.open_ ~config env in
  Fun.protect ~finally:(fun () -> Flsm.close db) (fun () -> f env db)

let key i = Printf.sprintf "key%06d" i

let put_get_delete () =
  with_db (fun _ db ->
      Flsm.put db "k" "v";
      Alcotest.(check (option string)) "get" (Some "v") (Flsm.get db "k");
      Flsm.delete db "k";
      Alcotest.(check (option string)) "deleted" None (Flsm.get db "k"))

let guards_form () =
  with_db (fun _ db ->
      let n = 3000 in
      for i = 0 to n - 1 do
        Flsm.put db (key (i * 13 mod n)) (String.make 32 'v')
      done;
      Flsm.compact_now db;
      let guards = Flsm.guard_counts db in
      Alcotest.(check bool) "guards created below L0" true
        (List.exists (fun g -> g > 1) guards);
      for i = 0 to n - 1 do
        if Flsm.get db (key i) = None then Alcotest.failf "lost %s" (key i)
      done)

let overwrites_and_versions () =
  with_db (fun _ db ->
      for round = 0 to 20 do
        for i = 0 to 99 do
          Flsm.put db (key i) (Printf.sprintf "r%d" round)
        done
      done;
      Flsm.compact_now db;
      for i = 0 to 99 do
        Alcotest.(check (option string)) "newest wins across fragments" (Some "r20")
          (Flsm.get db (key i))
      done)

let deletes () =
  with_db (fun _ db ->
      for i = 0 to 299 do
        Flsm.put db (key i) "v"
      done;
      Flsm.compact_now db;
      for i = 0 to 49 do
        Flsm.delete db (key i)
      done;
      Flsm.compact_now db;
      for i = 0 to 49 do
        Alcotest.(check (option string)) "no resurrection" None (Flsm.get db (key i))
      done;
      Alcotest.(check int) "scan count" 250
        (List.length (Flsm.scan db ~low:"" ~high:"zzzz" ())))

let scan_correct () =
  with_db (fun _ db ->
      for i = 0 to 499 do
        Flsm.put db (key i) (string_of_int i)
      done;
      Flsm.compact_now db;
      let r = Flsm.scan db ~low:(key 100) ~high:(key 199) () in
      Alcotest.(check int) "range" 100 (List.length r);
      Alcotest.(check bool) "sorted" true (List.sort compare r = r))

let wal_recovery () =
  let env = Env.memory () in
  let db = Flsm.open_ ~config:tiny_config env in
  for i = 0 to 99 do
    Flsm.put db (key i) "persisted"
  done;
  Flsm.close db;
  Env.crash env;
  let db = Flsm.open_ ~config:tiny_config env in
  for i = 0 to 99 do
    Alcotest.(check (option string)) "recovered" (Some "persisted") (Flsm.get db (key i))
  done;
  Flsm.close db

let model_random =
  QCheck.Test.make ~name:"flsm matches map model" ~count:20
    QCheck.(
      list_of_size
        Gen.(int_range 1 400)
        (pair (int_range 0 80) (option (string_of_size (Gen.return 4)))))
    (fun ops ->
      let env = Env.memory () in
      let db = Flsm.open_ ~config:tiny_config env in
      let module M = Map.Make (String) in
      let model = ref M.empty in
      List.iter
        (fun (k, v) ->
          let k = key k in
          (match v with Some v -> Flsm.put db k v | None -> Flsm.delete db k);
          model := M.add k v !model)
        ops;
      Flsm.compact_now db;
      let ok = M.for_all (fun k v -> Flsm.get db k = v) !model in
      Flsm.close db;
      ok)

let lower_write_amp_than_lsm () =
  (* The FLSM design point: under heavy overwrite pressure its write
     amplification must not exceed the leveled LSM's. *)
  let run_flsm () =
    let env = Env.memory () in
    let db = Flsm.open_ ~config:tiny_config env in
    for i = 0 to 4999 do
      Flsm.put db (key (i mod 1000)) (String.make 64 'v')
    done;
    let wa = Flsm.write_amplification db in
    Flsm.close db;
    wa
  in
  let run_lsm () =
    let env = Env.memory () in
    let db =
      Evendb_lsm.Lsm.open_
        ~config:
          {
            Evendb_lsm.Lsm.Config.default with
            memtable_bytes = 2 * 1024;
            level_base_bytes = 8 * 1024;
            target_file_bytes = 4 * 1024;
          }
        env
    in
    for i = 0 to 4999 do
      Evendb_lsm.Lsm.put db (key (i mod 1000)) (String.make 64 'v')
    done;
    let wa = Evendb_lsm.Lsm.write_amplification db in
    Evendb_lsm.Lsm.close db;
    wa
  in
  let flsm_wa = run_flsm () and lsm_wa = run_lsm () in
  Alcotest.(check bool)
    (Printf.sprintf "flsm %.1f <= lsm %.1f * 1.1" flsm_wa lsm_wa)
    true (flsm_wa <= lsm_wa *. 1.1)

let suite =
  [
    ( "flsm",
      [
        Alcotest.test_case "put/get/delete" `Quick put_get_delete;
        Alcotest.test_case "guards form" `Quick guards_form;
        Alcotest.test_case "overwrites across fragments" `Quick overwrites_and_versions;
        Alcotest.test_case "deletes" `Quick deletes;
        Alcotest.test_case "scan" `Quick scan_correct;
        Alcotest.test_case "recovery" `Quick wal_recovery;
        Alcotest.test_case "write amp <= leveled LSM" `Quick lower_write_amp_than_lsm;
        qtest model_random;
      ]
      @ Test_lsm.shared_cases (module Flsm_engine) );
  ]
