(* Randomized fault-injection soak: every engine runs a put workload
   under a seeded schedule of injected append/fsync/rename failures and
   torn tail writes, then crashes, recovers with faults disarmed, and
   must show (a) every acked write survived, (b) scans are sorted and
   free of phantom values, (c) the engine is still usable.

   The base seed matrix runs on every `dune runtest`; CI's fault-soak
   job and local runs can widen it with FAULT_SOAK_SEEDS="9,10,11". *)

open Evendb_util
open Evendb_storage

module type ENGINE = sig
  type t

  val name : string
  val open_ : Env.t -> t
  val close : t -> unit
  val put : t -> string -> string -> unit
  val get : t -> string -> string option
  val scan : t -> low:string -> high:string -> (string * string) list

  val chunk_count : (t -> int) option
  (** [Some] for an engine whose store must split under the soak: puts
      alone never merge chunks, so more than one means a split. *)
end

(* All engines run in synchronous-durability mode so that "the put
   returned" means "the write must survive a crash" — the strongest
   contract, and the one fault injection is most likely to break.
   Thresholds are shrunk, and the key space is wide enough, that
   flushes, compactions and splits all fire inside a few hundred puts. *)

module Evendb_engine : ENGINE = struct
  open Evendb_core

  type t = Db.t

  let name = "evendb"

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

  let open_ env = Db.open_ ~config env
  let close = Db.close
  let put = Db.put
  let get = Db.get
  let scan t ~low ~high = Db.scan t ~low ~high ()
  let chunk_count = Some Db.chunk_count
end

module Lsm_engine : ENGINE = struct
  open Evendb_lsm

  type t = Lsm.t

  let name = "lsm"

  let config =
    {
      Lsm.Config.default with
      memtable_bytes = 2 * 1024;
      level_base_bytes = 8 * 1024;
      target_file_bytes = 4 * 1024;
      sync_writes = true;
    }

  let open_ env = Lsm.open_ ~config env
  let close = Lsm.close
  let put = Lsm.put
  let get = Lsm.get
  let scan t ~low ~high = Lsm.scan t ~low ~high ()
  let chunk_count = None
end

module Flsm_engine : ENGINE = struct
  open Evendb_flsm

  type t = Flsm.t

  let name = "flsm"

  let config =
    {
      Flsm.Config.default with
      memtable_bytes = 2 * 1024;
      guard_bytes = 8 * 1024;
      sync_writes = true;
    }

  let open_ env = Flsm.open_ ~config env
  let close = Flsm.close
  let put = Flsm.put
  let get = Flsm.get
  let scan t ~low ~high = Flsm.scan t ~low ~high ()
  let chunk_count = None
end

module Evendb_sharded_engine : ENGINE = struct
  open Evendb_core

  type t = Evendb_shard.t

  let name = "evendb-sharded"

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

  (* Split the soak's k0000..k0399 key range across three shards so
     faults land on every shard's log and on the SHARDS metadata. *)
  let boundaries = [ "k0133"; "k0267" ]

  let open_ env =
    (* First open provisions the SHARDS file and each shard's initial
       log under armed faults; provisioning is not the contract under
       test, so retry until the store comes up (the deterministic plan
       advances on every injected failure, so this terminates). *)
    let rec go n =
      try Evendb_shard.open_ ~config ~boundaries env
      with Env.Io_error _ when n > 0 -> go (n - 1)
    in
    go 1000

  let close = Evendb_shard.close
  let put = Evendb_shard.put
  let get = Evendb_shard.get
  let scan t ~low ~high = Evendb_shard.scan t ~low ~high ()
  let chunk_count = None
end

let engines =
  [
    (module Evendb_engine : ENGINE);
    (module Evendb_sharded_engine);
    (module Lsm_engine);
    (module Flsm_engine);
  ]

let key_of i = Printf.sprintf "k%04d" i
let value_of seq = Printf.sprintf "v%08d" seq

let seq_of_value ~ctx v =
  if String.length v <> 9 || v.[0] <> 'v' then
    Alcotest.failf "%s: corrupt value %S" ctx v;
  match int_of_string_opt (String.sub v 1 8) with
  | Some s -> s
  | None -> Alcotest.failf "%s: corrupt value %S" ctx v

(* One soak round: workload under fire -> crash -> clean recovery ->
   verification. [acked] holds the newest sequence number each key's
   successful puts reached; [attempted] the newest tried at all. A
   recovered value may land anywhere in (acked, attempted] — a put
   whose fsync failed after the append can still become durable — but
   below acked is lost durability and above attempted is corruption. *)
let soak (module E : ENGINE) ~seed () =
  let ctx = Printf.sprintf "%s seed %d" E.name seed in
  let plan = Fault.plan ~seed ~rate:0.02 () in
  let env = Env.memory ~faults:plan () in
  let db = E.open_ env in
  let nkeys = 400 in
  let acked = Hashtbl.create nkeys in
  let attempted = Hashtbl.create nkeys in
  let rng = Rng.create ((seed * 7919) + 1) in
  let seq = ref 0 in
  for _ = 1 to 600 do
    incr seq;
    let k = key_of (Rng.int rng nkeys) in
    Hashtbl.replace attempted k !seq;
    try
      E.put db k (value_of !seq);
      Hashtbl.replace acked k !seq
    with Env.Io_error _ -> ()
  done;
  Option.iter
    (fun count -> Alcotest.(check bool) (ctx ^ ": workload split") true (count db > 1))
    E.chunk_count;
  Env.crash env;
  Fault.set_armed plan false;
  Alcotest.(check bool) (ctx ^ ": schedule injected faults") true (Fault.injected plan > 0);
  let db = E.open_ env in
  let check_value k v ~required =
    let s = seq_of_value ~ctx v in
    (match required with
    | Some acked_seq when s < acked_seq ->
      Alcotest.failf "%s: key %s lost durability (recovered seq %d < acked %d)" ctx k s
        acked_seq
    | _ -> ());
    match Hashtbl.find_opt attempted k with
    | Some att when s <= att -> ()
    | _ -> Alcotest.failf "%s: key %s has phantom value %S" ctx k v
  in
  Hashtbl.iter
    (fun k acked_seq ->
      match E.get db k with
      | None -> Alcotest.failf "%s: acked key %s missing after recovery" ctx k
      | Some v -> check_value k v ~required:(Some acked_seq))
    acked;
  let entries = E.scan db ~low:"" ~high:"\xff" in
  let rec check_sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.compare a b >= 0 then
        Alcotest.failf "%s: scan out of order (%S before %S)" ctx a b;
      check_sorted rest
    | _ -> ()
  in
  check_sorted entries;
  List.iter (fun (k, v) -> check_value k v ~required:(Hashtbl.find_opt acked k)) entries;
  Hashtbl.iter
    (fun k _ ->
      if not (List.mem_assoc k entries) then
        Alcotest.failf "%s: acked key %s missing from scan" ctx k)
    acked;
  (* Recovered store must remain fully usable. *)
  E.put db "zzz-post-recovery" "ok";
  Alcotest.(check (option string))
    (ctx ^ ": usable after recovery")
    (Some "ok")
    (E.get db "zzz-post-recovery");
  E.close db

(* A certain fault must surface to the caller as the typed error — not
   a Failure, not a unix exception, not silence — and leave the engine
   usable once the fault clears. *)
let typed_error_surfaces (module E : ENGINE) () =
  let plan = Fault.plan ~seed:99 ~rate:1.0 ~torn_fraction:0.0 () in
  Fault.set_armed plan false;
  let env = Env.memory ~faults:plan () in
  let db = E.open_ env in
  E.put db "a" "1";
  Fault.set_armed plan true;
  (try
     E.put db "b" "2";
     Alcotest.failf "%s: expected Env.Io_error from put under certain fault" E.name
   with
  | Env.Io_error _ -> ()
  | exn ->
    Alcotest.failf "%s: expected Env.Io_error, got %s" E.name (Printexc.to_string exn));
  Fault.set_armed plan false;
  E.put db "c" "3";
  Alcotest.(check (option string)) (E.name ^ ": pre-fault key") (Some "1") (E.get db "a");
  Alcotest.(check (option string)) (E.name ^ ": post-fault key") (Some "3") (E.get db "c");
  E.close db

(* Telemetry guard: a faulty workload must accumulate observable
   residue (counters, spans, per-chunk tables, hot-prefix sketch), and
   one [Db.reset_metrics] must zero all of it. *)
let reset_leaves_no_residue () =
  let open Evendb_core in
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
  in
  let plan = Fault.plan ~seed:11 ~rate:0.02 () in
  let env = Env.memory ~faults:plan () in
  let db = Db.open_ ~config env in
  for i = 1 to 400 do
    (try Db.put db (key_of (i mod 40)) (value_of i) with Env.Io_error _ -> ());
    if i mod 3 = 0 then
      try ignore (Db.get db (key_of (i mod 40))) with Env.Io_error _ -> ()
  done;
  Fault.set_armed plan false;
  Db.maintain db;
  Alcotest.(check bool)
    "faulty workload accumulated telemetry" true
    (Db.metrics_residue db <> []);
  Db.reset_metrics db;
  Alcotest.(check (list string)) "reset leaves no residue" [] (Db.metrics_residue db);
  Db.close db

let base_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let seeds =
  base_seeds
  @
  match Sys.getenv_opt "FAULT_SOAK_SEEDS" with
  | None | Some "" -> []
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

let suite =
  [
    ( "faults",
      Alcotest.test_case "reset leaves no telemetry residue" `Quick reset_leaves_no_residue
      :: List.concat_map
        (fun (module E : ENGINE) ->
          Alcotest.test_case
            (Printf.sprintf "%s typed error surfaces" E.name)
            `Quick
            (typed_error_surfaces (module E))
          :: List.map
               (fun seed ->
                 Alcotest.test_case
                   (Printf.sprintf "%s soak seed %d" E.name seed)
                   `Quick
                   (soak (module E) ~seed))
               seeds)
        engines );
  ]
