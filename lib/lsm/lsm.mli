(** A leveled LSM-tree key-value store — the RocksDB-like baseline the
    paper compares against (§5).

    Classic design: a global write-ahead log, an in-memory memtable,
    and levels of immutable SSTables. L0 files are flushed memtables
    (overlapping); L1+ files are non-overlapping and each level is ten
    times larger than the previous. Background work is performed
    inline on the write path (flushes when the memtable fills,
    compactions when a level overflows), which reproduces the paper's
    observed compaction stalls.

    The engine is {!Lsm_tree.Make} applied to the leveled layout; only
    the level search and the compaction picker live here.

    Runs on the same instrumented {!Evendb_storage.Env} as EvenDB, so
    throughput and write-amplification comparisons are
    apples-to-apples. Supports atomic scans via sequence-number
    snapshots; active snapshots block version garbage collection in
    compactions, like EvenDB's PO array does. *)

open Evendb_storage

module Config : sig
  type t = {
    memtable_bytes : int;  (** Flush trigger. *)
    level_base_bytes : int;  (** L1 capacity; Li = base * 10^(i-1). *)
    target_file_bytes : int;  (** Output file size during compaction. *)
    sync_writes : bool;  (** fsync the WAL on every put. *)
    wal_fsync_every : int;  (** Async mode: fsync WAL every N puts (0 = only at close). *)
    attr_enabled : bool;  (** Per-op tail-latency cause attribution. *)
    block_cache_bytes : int;
        (** Shared sstable block cache installed on the env at open
            (default 32MiB; 0 disables — no-op if the env already
            carries one). *)
  }
  (** Fixed for every store: 7 levels, an L0→L1 compaction at 4 L0
      files, a level size multiplier of 10, 10 bloom bits per key and
      4 KiB sstable blocks. *)

  val default : t

  val scaled : ?factor:int -> unit -> t
  (** Shrink all size thresholds by [factor] (default 64), preserving
      ratios. *)
end

type t

val open_ : ?config:Config.t -> Env.t -> t
(** Opens or recovers: the manifest restores the level structure and
    the WAL is replayed into a fresh memtable (unlike EvenDB, an LSM
    must replay its log on recovery). *)

val close : t -> unit

val put : t -> string -> string -> unit
val get : t -> string -> string option
val delete : t -> string -> unit

val scan : t -> ?limit:int -> low:string -> high:string -> unit -> (string * string) list

val compact_now : t -> unit
(** Drive flush + compaction to quiescence (phase boundaries in
    benchmarks). *)

val flush_wal : t -> unit

(** {2 Introspection} *)

val env : t -> Env.t
val logical_bytes_written : t -> int
val write_amplification : t -> float
val level_file_counts : t -> int list
val level_bytes : t -> int list

(** {2 Observability} *)

val obs : t -> Evendb_obs.Obs.t
(** Op-latency timers ([db.put]/[db.get]/[db.delete]/[db.scan]),
    [lsm.stalls] (puts that paid an inline flush/compaction),
    [wal.appends], per-file-kind I/O probes, spans around
    [memtable_flush], [compaction] (with a [level] attribute) and
    [recovery], and per-level shape metrics: [level<i>.bytes_written]
    (bytes landing in the level), [level<i>.bytes_compacted] (bytes
    compacted out of it), [level<i>.read_hits] (gets served by it),
    plus [level<i>.bytes]/[level<i>.files] probes of the current
    shape. *)

val attr : t -> Evendb_obs.Attr.t
(** Per-op cause attribution: writer-mutex waits ([Lock_wait]), WAL
    appends/fsyncs (via the log layer), inline flush+compaction
    ([Compaction] — the classic write stall) and level reads
    ([Disk_read]). *)

val metrics_dump : t -> [ `Json | `Prometheus ] -> string

val parse_file_name : string -> Lsm_tree.file option
(** Which of this engine's files [name] is (fsck's classifier). *)
