(** A fragmented LSM-tree (FLSM) — the PebblesDB-like baseline of §5.4.

    PebblesDB's key idea: levels are partitioned by {e guards}; when
    level i is compacted, each guard's fragments are merged and the
    output is *appended* as new fragments under the child guards of
    level i+1, without rewriting the child's existing data. Write
    amplification drops (data is rewritten once per level instead of
    repeatedly), at the cost of reads having to examine several
    overlapping fragments per guard.

    Guards are created by splitting oversized compaction outputs at
    key boundaries (a deterministic stand-in for PebblesDB's
    probabilistic guard sampling — it yields the same structure for a
    given data volume). The bottom level merges guards in place when
    they accumulate too many fragments.

    The engine is {!Evendb_lsm.Lsm_tree.Make} applied to the guarded
    layout — the same WAL, memtable, manifest, recovery and metrics as
    the LSM baseline — and runs on the same instrumented storage
    environment. Only the level search and the guard compaction live
    here. *)

open Evendb_storage

module Config : sig
  type t = {
    memtable_bytes : int;  (** Flush trigger. *)
    max_fragments_per_guard : int;
        (** Fragment count that triggers compaction of a guard. *)
    guard_bytes : int;
        (** Target data volume per guard; compaction outputs larger
            than this create new child guards. *)
    sync_writes : bool;  (** fsync the WAL on every put. *)
    wal_fsync_every : int;  (** Async mode: fsync WAL every N puts (0 = only at close). *)
    attr_enabled : bool;  (** Per-op tail-latency cause attribution. *)
    block_cache_bytes : int;
        (** Shared sstable block cache installed on the env at open
            (default 32MiB; 0 disables — no-op if the env already
            carries one). *)
  }
  (** Fixed for every store: 5 levels, an L0 compaction at 4 L0
      fragments, 10 bloom bits per key and 4 KiB sstable blocks. *)

  val default : t
  val scaled : ?factor:int -> unit -> t
end

type t

val open_ : ?config:Config.t -> Env.t -> t
val close : t -> unit

val put : t -> string -> string -> unit
val get : t -> string -> string option
val delete : t -> string -> unit
val scan : t -> ?limit:int -> low:string -> high:string -> unit -> (string * string) list

val compact_now : t -> unit

val env : t -> Env.t
val logical_bytes_written : t -> int
val write_amplification : t -> float

val fragment_counts : t -> int list
(** Total fragments per level. *)

val guard_counts : t -> int list

(** {2 Observability} *)

val obs : t -> Evendb_obs.Obs.t
(** Op-latency timers ([db.put]/[db.get]/[db.delete]/[db.scan]),
    [flsm.stalls] (puts that paid an inline flush/compaction),
    [wal.appends], per-file-kind I/O probes, spans around
    [fragment_append], [guard_merge], [memtable_flush] and [recovery],
    and per-level shape metrics: [level<i>.bytes_written] (bytes landing
    in the level), [level<i>.bytes_compacted] (bytes compacted out of
    it), [level<i>.read_hits] (gets served by it), plus
    [level<i>.bytes]/[level<i>.files] probes of the current shape —
    names match the LSM baseline so write-amplification shape is
    directly comparable across engines. *)

val attr : t -> Evendb_obs.Attr.t
(** Per-op cause attribution: writer-mutex waits ([Lock_wait]), WAL
    appends/fsyncs (via the log layer), inline flush+compaction
    ([Compaction]) and fragment reads ([Disk_read]). *)

val metrics_dump : t -> [ `Json | `Prometheus ] -> string

val parse_file_name : string -> Evendb_lsm.Lsm_tree.file option
(** Which of this engine's files [name] is (fsck's classifier). *)
