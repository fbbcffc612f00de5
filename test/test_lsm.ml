(* LSM baseline tests: correctness of the leveled engine so that the
   paper's comparisons measure performance, not bugs. The cases that
   only use the scaffold's surface take the engine as an input;
   test_flsm.ml runs them on the FLSM baseline too. *)

open Evendb_storage
open Evendb_lsm

let qtest = QCheck_alcotest.to_alcotest

module type ENGINE = sig
  type t

  val open_ : ?wal_fsync_every:int -> Env.t -> t
  (** Opens with a tiny config, so a few thousand puts flush and
      compact several times. *)

  val close : t -> unit
  val put : t -> string -> string -> unit
  val get : t -> string -> string option
  val delete : t -> string -> unit
  val scan : t -> ?limit:int -> low:string -> high:string -> unit -> (string * string) list
  val compact_now : t -> unit
  val level_file_counts : t -> int list
  val write_amplification : t -> float
end

let tiny_config =
  {
    Lsm.Config.default with
    memtable_bytes = 2 * 1024;
    level_base_bytes = 8 * 1024;
    target_file_bytes = 4 * 1024;
  }

module Lsm_engine = struct
  include Lsm

  let open_ ?wal_fsync_every env =
    let wal_fsync_every = Option.value wal_fsync_every ~default:tiny_config.wal_fsync_every in
    Lsm.open_ ~config:{ tiny_config with wal_fsync_every } env
end

let with_db (type db) (module E : ENGINE with type t = db) f =
  let env = Env.memory () in
  let db = E.open_ env in
  Fun.protect ~finally:(fun () -> E.close db) (fun () -> f env db)

let key i = Printf.sprintf "key%06d" i

let put_get_delete () =
  with_db (module Lsm_engine) (fun _ db ->
      Lsm.put db "k" "v";
      Alcotest.(check (option string)) "get" (Some "v") (Lsm.get db "k");
      Lsm.put db "k" "v2";
      Alcotest.(check (option string)) "overwrite" (Some "v2") (Lsm.get db "k");
      Lsm.delete db "k";
      Alcotest.(check (option string)) "delete" None (Lsm.get db "k");
      Alcotest.(check (option string)) "absent" None (Lsm.get db "nope"))

let survives_flush_and_compaction (module E : ENGINE) () =
  with_db (module E) (fun _ db ->
      let n = 3000 in
      for i = 0 to n - 1 do
        E.put db (key (i * 17 mod n)) (Printf.sprintf "v%d" i)
      done;
      E.compact_now db;
      let counts = E.level_file_counts db in
      Alcotest.(check bool) "deep levels populated" true (List.nth counts 1 + List.nth counts 2 > 0);
      for i = 0 to n - 1 do
        if E.get db (key i) = None then Alcotest.failf "lost %s" (key i)
      done)

let deletes_across_levels (module E : ENGINE) () =
  with_db (module E) (fun _ db ->
      for i = 0 to 499 do
        E.put db (key i) "v"
      done;
      E.compact_now db;
      (* Tombstones land above the values, then compaction merges. *)
      for i = 0 to 99 do
        E.delete db (key i)
      done;
      E.compact_now db;
      for i = 0 to 99 do
        Alcotest.(check (option string)) "deleted stays deleted" None (E.get db (key i))
      done;
      Alcotest.(check (option string)) "survivor intact" (Some "v") (E.get db (key 100));
      Alcotest.(check int) "scan count" 400 (List.length (E.scan db ~low:"" ~high:"zzzz" ())))

let scan_semantics (module E : ENGINE) () =
  with_db (module E) (fun _ db ->
      for i = 0 to 99 do
        E.put db (key i) (string_of_int i)
      done;
      E.compact_now db;
      for i = 100 to 149 do
        E.put db (key i) (string_of_int i)
      done;
      (* Scan spanning SSTables and the memtable. *)
      let r = E.scan db ~low:(key 90) ~high:(key 110) () in
      Alcotest.(check int) "range size" 21 (List.length r);
      Alcotest.(check bool) "sorted" true (List.sort compare r = r);
      Alcotest.(check int) "limit" 5 (List.length (E.scan db ~limit:5 ~low:"" ~high:"zzzz" ())))

let wal_recovery () =
  let env = Env.memory () in
  let db = Lsm.open_ ~config:tiny_config env in
  for i = 0 to 199 do
    Lsm.put db (key i) "persisted"
  done;
  Lsm.flush_wal db;
  Env.crash env;
  let db = Lsm.open_ ~config:tiny_config env in
  for i = 0 to 199 do
    Alcotest.(check (option string)) "replayed from WAL" (Some "persisted") (Lsm.get db (key i))
  done;
  Lsm.close db

let crash_loses_unsynced_wal (module E : ENGINE) () =
  let env = Env.memory () in
  let db = E.open_ ~wal_fsync_every:0 env in
  E.put db "k" "v";
  Env.crash env;
  let db = E.open_ env in
  Alcotest.(check (option string)) "unsynced put lost" None (E.get db "k");
  E.close db

let concurrent_readers_writer (module E : ENGINE) () =
  with_db (module E) (fun _ db ->
      for i = 0 to 99 do
        E.put db (key i) "init"
      done;
      let stop = Atomic.make false in
      let misses = Atomic.make 0 in
      let readers =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                while not (Atomic.get stop) do
                  for i = 0 to 99 do
                    if E.get db (key i) = None then Atomic.incr misses
                  done
                done))
      in
      for round = 0 to 10 do
        for i = 0 to 99 do
          E.put db (key i) (Printf.sprintf "r%d" round)
        done
      done;
      Atomic.set stop true;
      List.iter Domain.join readers;
      Alcotest.(check int) "no reads lost during compactions" 0 (Atomic.get misses))

(* Readers pin the current state while the writer publishes new ones
   back to back (a flush per put). A reader that loads a state just as
   its last pin is released must not revive it: releasing it a second
   time drops files the next state still holds, and later gets miss or
   raise. More readers than cores make a reader likelier to be
   descheduled inside that window. *)
let pin_races_publish (module E : ENGINE) () =
  with_db (module E) (fun _ db ->
      let n = 32 in
      for i = 0 to n - 1 do
        E.put db (key i) "v"
      done;
      E.compact_now db;
      let stop = Atomic.make false in
      let errors = Atomic.make 0 in
      let readers =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                while not (Atomic.get stop) do
                  for i = 0 to n - 1 do
                    match E.get db (key i) with
                    | Some _ -> ()
                    | None | (exception _) -> Atomic.incr errors
                  done
                done))
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          List.iter Domain.join readers)
        (fun () ->
          for round = 0 to 1499 do
            E.put db (key (round mod n)) "v";
            E.compact_now db
          done);
      Alcotest.(check int) "every get saw live files" 0 (Atomic.get errors))

let scan_snapshot_invariant (module E : ENGINE) () =
  with_db (module E) (fun _ db ->
      E.put db "aaa" "0";
      E.put db "bbb" "0";
      let stop = Atomic.make false in
      let violations = Atomic.make 0 in
      let scanner =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let r = E.scan db ~low:"aaa" ~high:"bbb" () in
              match (List.assoc_opt "aaa" r, List.assoc_opt "bbb" r) with
              | Some a, Some b ->
                if int_of_string b > int_of_string a then Atomic.incr violations
              | _ -> Atomic.incr violations
            done)
      in
      for i = 1 to 2000 do
        E.put db "aaa" (string_of_int i);
        E.put db "bbb" (string_of_int i)
      done;
      Atomic.set stop true;
      Domain.join scanner;
      Alcotest.(check int) "atomic scans" 0 (Atomic.get violations))

let model_random =
  QCheck.Test.make ~name:"lsm matches map model" ~count:20
    QCheck.(
      list_of_size
        Gen.(int_range 1 400)
        (pair (int_range 0 80) (option (string_of_size (Gen.return 4)))))
    (fun ops ->
      let env = Env.memory () in
      let db = Lsm.open_ ~config:tiny_config env in
      let module M = Map.Make (String) in
      let model = ref M.empty in
      List.iter
        (fun (k, v) ->
          let k = key k in
          (match v with Some v -> Lsm.put db k v | None -> Lsm.delete db k);
          model := M.add k v !model)
        ops;
      let ok = M.for_all (fun k v -> Lsm.get db k = v) !model in
      Lsm.close db;
      ok)

let write_amp_reported (module E : ENGINE) () =
  with_db (module E) (fun _ db ->
      for i = 0 to 999 do
        E.put db (key i) (String.make 100 'v')
      done;
      Alcotest.(check bool) "wa > 1 (wal + flush)" true (E.write_amplification db > 1.0))

(* The cases every baseline built on the scaffold must pass. *)
let shared_cases engine =
  [
    Alcotest.test_case "flush and compaction" `Quick (survives_flush_and_compaction engine);
    Alcotest.test_case "deletes across levels" `Quick (deletes_across_levels engine);
    Alcotest.test_case "scan semantics" `Quick (scan_semantics engine);
    Alcotest.test_case "unsynced WAL lost on crash" `Quick (crash_loses_unsynced_wal engine);
    Alcotest.test_case "readers during compactions" `Quick (concurrent_readers_writer engine);
    Alcotest.test_case "pin races publish" `Quick (pin_races_publish engine);
    Alcotest.test_case "scan snapshot invariant" `Quick (scan_snapshot_invariant engine);
    Alcotest.test_case "write amplification reported" `Quick (write_amp_reported engine);
  ]

let suite =
  [
    ( "lsm",
      (Alcotest.test_case "put/get/delete" `Quick put_get_delete :: shared_cases (module Lsm_engine))
      @ [ Alcotest.test_case "WAL recovery" `Quick wal_recovery; qtest model_random ] );
  ]
