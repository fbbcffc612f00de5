(** Uniform facade over the three storage engines so the workload
    runner and every benchmark treat them interchangeably. *)

open Evendb_storage

type t = {
  name : string;
  put : string -> string -> unit;
  get : string -> string option;
  delete : string -> unit;
  scan : low:string -> high:string -> limit:int -> (string * string) list;
  maintain : unit -> unit;  (** Drive compaction/flushes to quiescence. *)
  close : unit -> unit;
  env : Env.t;
  logical_bytes : unit -> int;
  metrics : unit -> string;  (** JSON metrics snapshot (see {!Evendb_obs.Obs.to_json}). *)
  attr : unit -> Evendb_obs.Attr.t;
      (** The engine's per-op tail-latency attribution handle: slow-op
          ring and cumulative per-cause totals (see {!Evendb_obs.Attr}).
          Benchmarks use it to calibrate slow thresholds and export
          per-phase breakdowns. *)
  absorbed_failures : unit -> int;
      (** Operations swallowed by {!fault_tolerant} (0 on a bare engine). *)
}

val of_db : ?name:string -> Evendb_core.Db.t -> Env.t -> t
(** Wrap an already-open store that lives in [env] (named ["EvenDB"] by
    default), for callers that also need the {!Evendb_core.Db.t} itself. *)

val evendb : ?config:Evendb_core.Config.t -> Env.t -> t

val evendb_sharded :
  ?config:Evendb_core.Config.t -> ?shared_commit:bool -> shards:int -> Env.t -> t
(** {!Evendb_shard} front end: [shards] range shards with uniform split
    keys over the YCSB key space, all inside [env] (disjoint
    name-prefixed sub-namespaces). *)

val lsm : ?config:Evendb_lsm.Lsm.Config.t -> Env.t -> t
val flsm : ?config:Evendb_flsm.Flsm.Config.t -> Env.t -> t

val fault_tolerant : t -> t
(** Wrap every operation so a typed {!Env.Io_error} is absorbed and
    counted instead of propagating — benchmarks under an injected
    fault profile keep driving load when an operation fails cleanly.
    Applied by the bench harness whenever a fault profile is set. *)

val write_amplification : t -> float
(** Physical bytes written / logical bytes accepted (measured from the
    environment's I/O counters). *)

val bytes_read : t -> int
val bytes_written : t -> int
val space_used : t -> int
