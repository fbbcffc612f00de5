open Evendb_storage

type t = {
  name : string;
  put : string -> string -> unit;
  get : string -> string option;
  delete : string -> unit;
  scan : low:string -> high:string -> limit:int -> (string * string) list;
  maintain : unit -> unit;
  close : unit -> unit;
  env : Env.t;
  logical_bytes : unit -> int;
  metrics : unit -> string;
  attr : unit -> Evendb_obs.Attr.t;
  absorbed_failures : unit -> int;
}

let of_db ?(name = "EvenDB") db env =
  let module Db = Evendb_core.Db in
  {
    name;
    put = Db.put db;
    get = Db.get db;
    delete = Db.delete db;
    scan = (fun ~low ~high ~limit -> Db.scan db ~limit ~low ~high ());
    maintain = (fun () -> Db.maintain db);
    close = (fun () -> Db.close db);
    env;
    logical_bytes = (fun () -> Db.logical_bytes_written db);
    metrics = (fun () -> Db.metrics_dump db `Json);
    attr = (fun () -> Db.attr db);
    absorbed_failures = (fun () -> 0);
  }

let evendb ?config env = of_db (Evendb_core.Db.open_ ?config env) env

(* Range-sharded front end over the YCSB key space: n shards with
   uniform split keys over [Keys.encode]'s full range, so the scrambled
   (uniform) key stream load-balances across them — and so
   [Workload.Range_uniform shards] slices map one-to-one onto shards. *)
let evendb_sharded ?config ?shared_commit ~shards env =
  if shards < 1 then invalid_arg "Engine.evendb_sharded: shards < 1";
  let boundaries =
    let key_space = 1 lsl Keys.key_bits in
    List.init (shards - 1) (fun i -> Keys.encode ((i + 1) * (key_space / shards)))
  in
  let db = Evendb_shard.open_ ?config ?shared_commit ~boundaries env in
  {
    name = Printf.sprintf "EvenDB-sharded-%d" shards;
    put = Evendb_shard.put db;
    get = Evendb_shard.get db;
    delete = Evendb_shard.delete db;
    scan = (fun ~low ~high ~limit -> Evendb_shard.scan db ~limit ~low ~high ());
    maintain = (fun () -> Evendb_shard.maintain db);
    close = (fun () -> Evendb_shard.close db);
    env;
    logical_bytes = (fun () -> Evendb_shard.logical_bytes_written db);
    metrics = (fun () -> Evendb_shard.metrics_dump db `Json);
    attr = (fun () -> Evendb_shard.attr db);
    absorbed_failures = (fun () -> 0);
  }

let lsm ?config env =
  let db = Evendb_lsm.Lsm.open_ ?config env in
  {
    name = "RocksDB-like LSM";
    put = Evendb_lsm.Lsm.put db;
    get = Evendb_lsm.Lsm.get db;
    delete = Evendb_lsm.Lsm.delete db;
    scan = (fun ~low ~high ~limit -> Evendb_lsm.Lsm.scan db ~limit ~low ~high ());
    maintain = (fun () -> Evendb_lsm.Lsm.compact_now db);
    close = (fun () -> Evendb_lsm.Lsm.close db);
    env;
    logical_bytes = (fun () -> Evendb_lsm.Lsm.logical_bytes_written db);
    metrics = (fun () -> Evendb_lsm.Lsm.metrics_dump db `Json);
    attr = (fun () -> Evendb_lsm.Lsm.attr db);
    absorbed_failures = (fun () -> 0);
  }

let flsm ?config env =
  let db = Evendb_flsm.Flsm.open_ ?config env in
  {
    name = "PebblesDB-like FLSM";
    put = Evendb_flsm.Flsm.put db;
    get = Evendb_flsm.Flsm.get db;
    delete = Evendb_flsm.Flsm.delete db;
    scan = (fun ~low ~high ~limit -> Evendb_flsm.Flsm.scan db ~limit ~low ~high ());
    maintain = (fun () -> Evendb_flsm.Flsm.compact_now db);
    close = (fun () -> Evendb_flsm.Flsm.close db);
    env;
    logical_bytes = (fun () -> Evendb_flsm.Flsm.logical_bytes_written db);
    metrics = (fun () -> Evendb_flsm.Flsm.metrics_dump db `Json);
    attr = (fun () -> Evendb_flsm.Flsm.attr db);
    absorbed_failures = (fun () -> 0);
  }

let bytes_written t = (Io_stats.snapshot (Env.stats t.env)).Io_stats.bytes_written
let bytes_read t = (Io_stats.snapshot (Env.stats t.env)).Io_stats.bytes_read

let write_amplification t =
  let logical = t.logical_bytes () in
  if logical = 0 then 0.0 else float_of_int (bytes_written t) /. float_of_int logical

let space_used t = Env.space_used t.env

(* Benchmarks under an injected fault profile must keep driving load
   when an operation fails cleanly: wrap every op so a typed storage
   error is absorbed and counted instead of killing the experiment.
   Reads cannot be injected, but scans and gets are wrapped anyway so
   the facade stays uniformly total. *)
let fault_tolerant e =
  let absorbed = Atomic.make 0 in
  let guard f = try f () with Env.Io_error _ -> Atomic.incr absorbed in
  let guard_v default f = try f () with Env.Io_error _ -> Atomic.incr absorbed; default in
  {
    e with
    put = (fun k v -> guard (fun () -> e.put k v));
    delete = (fun k -> guard (fun () -> e.delete k));
    get = (fun k -> guard_v None (fun () -> e.get k));
    scan = (fun ~low ~high ~limit -> guard_v [] (fun () -> e.scan ~low ~high ~limit));
    maintain = (fun () -> guard e.maintain);
    close = (fun () -> guard e.close);
    absorbed_failures = (fun () -> e.absorbed_failures () + Atomic.get absorbed);
  }
