(** EvenDB: a persistent ordered key-value store optimized for spatial
    locality (the paper's core contribution).

    Data is range-partitioned into chunks. Each chunk is backed by a
    funk on disk (SSTable + per-chunk log — there is no global WAL) and
    may be cached wholesale in memory as a munk. Hot chunks are
    compacted almost exclusively in memory; cold chunks' funk logs are
    merged into their SSTables only when the log exceeds a (larger or
    smaller, munk-dependent) threshold, which keeps write amplification
    low (§2).

    [put], [get] and [scan] are atomic under arbitrary concurrency
    (multi-domain): gets are wait-free, puts synchronize with rebalance
    through a shared/exclusive per-chunk lock, and scans obtain
    snapshots from a global version, waiting only for overlapping
    pending puts (§3.2–§3.3).

    Persistence is asynchronous by default: a checkpoint fixes a global
    version below which everything is durable; after a crash the store
    recovers to that consistent prefix, ignoring newer on-disk records
    via epoch-tagged versions (§3.5). With [Config.persistence = Sync],
    every put fsyncs its funk log before returning. *)

open Evendb_storage

type t

(** {2 Lifecycle} *)

val open_ : ?config:Config.t -> ?committer:Group_commit.t -> Env.t -> t
(** Open (or create) the database stored in [env]. Runs recovery if
    funks from a previous incarnation are present: chunk metadata is
    rebuilt from the funk files (no log replay); data loads lazily.
    Raises [Invalid_argument] on corrupted metadata files.

    [committer] supplies an external group committer to use instead of
    a store-private one, so several stores can coalesce their sync puts
    into shared fsync batches (the sharded front end passes one
    committer to every shard). Only consulted when
    [config.persistence = Sync]; ignored otherwise. *)

val open_dir : ?config:Config.t -> string -> t
(** Convenience: [open_] over a fresh disk environment rooted at the
    directory. *)

val close : t -> unit
(** Checkpoint (async mode) and release all files. Idempotent. *)

(** {2 Operations} *)

val put : t -> string -> string -> unit
val get : t -> string -> string option
val delete : t -> string -> unit

val scan : t -> ?limit:int -> low:string -> high:string -> unit -> (string * string) list
(** Atomic range query: all pairs with [low <= key <= high] (at most
    [limit]) from one consistent snapshot. *)

val checkpoint : t -> unit
(** Complete a consistency checkpoint: obtain a snapshot version, wait
    for overlapping puts, fsync everything, persist the checkpoint
    marker (§3.5). Serialized internally. *)

(** {2 Point-in-time snapshots}

    [snapshot] publishes a read-only view of the store at a consistent
    version cut under the ["snapshots/<id>/"] namespace of the store's
    environment. A snapshot is a whole-range scan that keeps its
    files: the cut is a scan's (§3.3), a PO-array scan slot over the
    whole key range, held until the manifest's live funk set is
    pinned, so no version visible at the cut is compacted away first.
    {!Snapshot.publish} then copies the pinned set together with the
    manifest, checkpoint and recovery table and writes a CRC-trailered
    [COMPLETE] marker last (tmp + fsync + rename) — a crash
    mid-publish leaves no marker and recovery sweeps the debris. Read
    a published snapshot with {!Snapshot.open_reader}; back it up with
    {!Backup}. *)

val snapshot : t -> id:string -> Snapshot.info
(** Publish snapshot [id]. Raises [Invalid_argument] if [id] is
    malformed (see {!Snapshot.validate_id}) or already exists. Enforces
    [Config.snapshot_max_retained] by dropping the oldest snapshots
    after publishing. *)

val list_snapshots : t -> Snapshot.info list
(** Published snapshots, oldest first. *)

val drop_snapshot : t -> id:string -> unit
(** Delete snapshot [id]; no-op when absent. *)

(** {2 Fencing (failover)}

    Promotion fences the deposed primary: a durable [FENCED] marker
    makes every subsequent [put]/[delete] — in this process and after
    any restart — raise {!Fenced}, while reads stay available. *)

exception Fenced

val fence : t -> unit
val fenced : t -> bool
val unfence : t -> unit
(** Operator override: delete the marker and accept writes again. *)

val set_commit_hook : t -> (Evendb_util.Kv_iter.entry -> unit) option -> unit
(** Install (or clear) the post-commit tap: called once per
    [put]/[delete] with the appended entry, after the write is acked —
    under [Sync] persistence that is after the group-commit fsync
    covering it, so a hook never observes unacked data. The hook runs
    inline on the put path and must be fast and non-blocking; its time
    is attributed to the [repl_ship] cause. *)

(** {2 Maintenance} *)

val maintain : t -> unit
(** Run every pending rebalance/split to quiescence (tests and phase
    boundaries in benchmarks; normal operation triggers maintenance
    inline on the put path). *)

val evict_munk : t -> string -> bool
(** [evict_munk t key] drops the munk of the chunk covering [key] (if
    any), rebuilding its bloom filter — exposed for cache experiments;
    returns whether a munk was evicted. *)

(** {2 Introspection (benchmark harness)} *)

val env : t -> Env.t
val config : t -> Config.t

val chunk_count : t -> int
val munk_count : t -> int

val munk_bytes : t -> int
(** Resident munk bytes as the munk cache charges them: each munk
    weighs what it did when last built (loaded, rebalanced, split or
    merged). *)

val munk_budget_bytes : t -> int
(** The munk cache's byte budget, [munk_cache_capacity *
    max_chunk_bytes]; resident bytes settle within one
    [max_chunk_bytes] above it. *)

val logical_bytes_written : t -> int
(** Sum of key+value sizes accepted through [put]/[delete]. *)

val write_amplification : t -> float
(** Physical bytes written (from the env's {!Io_stats}) over
    {!logical_bytes_written}. *)

val read_stats : t -> Read_stats.summary
(** Per-component get breakdown (Figure 9); detailed latencies only
    when [Config.collect_read_stats]. *)

val chunk_weights : t -> (string * int * bool) list
(** Per-chunk (min-key, approximate live bytes, has-munk) — diagnostic
    and benchmark introspection. *)

val log_space : t -> int
(** Total bytes currently held in funk logs (Figure 4's "EvenDB Log"
    series). *)

val current_version : t -> int
val current_epoch : t -> int

(** {2 Observability} *)

val obs : t -> Evendb_obs.Obs.t
(** The instance's metrics registry and trace: op-latency timers
    ([db.put]/[db.get]/[db.delete]/[db.scan]), funk log-append, flush
    and merge counters, cache and per-file-kind I/O probes, and spans
    around maintenance ([munk_rebalance], [chunk_split],
    [cold_funk_rebalance], [funk_flush], [chunk_merge], [checkpoint],
    [recovery]) with bytes/entries attributes. *)

val attr : t -> Evendb_obs.Attr.t
(** Per-op tail-latency cause attribution (see {!Evendb_obs.Attr}):
    every put/get/delete/scan decomposes its wall time into lock-wait,
    log-append, fsync, disk-read, rebalance and compaction stalls; ops
    of 1 ms or more land in a 256-entry slow-op ring with their
    breakdown. Switched by [Config.attr_enabled]. *)

val metrics_dump : t -> [ `Json | `Prometheus ] -> string
(** Render the registry with the corresponding {!Evendb_obs.Obs}
    exporter. *)

(** {2 Spatial-locality telemetry}

    The paper's bet is that a few key ranges absorb most traffic; these
    APIs make that skew — and whether the munk cache tracks it —
    directly observable. *)

type chunk_stat = {
  cs_id : int;
  cs_min_key : string;
  cs_munk_resident : bool;
  cs_resident_bytes : int;  (** munk bytes when resident, else 0 *)
  cs_charged_bytes : int;
      (** what the munk cache charges for the munk ({!munk_bytes}): its
          bytes when last built; 0 when not resident *)
  cs_stat : Chunk.stat;
}

val chunk_stats : t -> chunk_stat list
(** One entry per live chunk, in key order: the chunk's access record
    (op counters, cache-hit split, maintenance counts; see {!Chunk.stat})
    joined with residency info. Its heat is the munk-cache policy's LFU
    frequency, the count that decides munk residency: sampled accesses
    (one get, put or scan visit in eight per domain), halved every
    10 000 of them, and inherited by split children and by a merged
    chunk from its left half. A new chunk's op counters start at zero. *)

val hot_prefix_len : int
(** Bytes of each get/put key fed to the hot-prefix sketch (8: ["user"]
    plus 4 digits under the YCSB key scheme, i.e. 10^6-key blocks). *)

val hot_prefixes : t -> (string * int * int) list * int
(** The hot-prefix Space-Saving sketch, fed the leading
    {!hot_prefix_len} bytes of every get/put key:
    [(entries, total)] where entries are [(prefix, count_lo, count_hi)]
    sorted hottest-first (see {!Evendb_obs.Topk.entries}) and [total]
    is the number of observations. *)

val dump_trace : t -> string
(** The span ring buffer as Chrome trace-event JSON
    ([chrome://tracing]/Perfetto-loadable); see
    {!Evendb_obs.Obs.to_chrome_trace}. *)

(** {2 Continuous telemetry}

    The sampler, journal and HTTP endpoint live in
    [Evendb_telemetry.Live], which works over any engine's registry;
    the store contributes only these. *)

val uptime_ns : t -> int
(** Monotonic nanoseconds since this handle was opened. *)

val sampler_gauges : t -> (string * int) list
(** Per-tick gauges the registry does not carry — [db.uptime_ns] and
    the 16 hottest key prefixes as [hot.<prefix>] — for
    [Live.start ~extra]. *)

val reset_metrics : t -> unit
(** Zero every resettable statistic in one shot: the {!obs} registry
    (counters/timers/trace — probes stay registered), read stats, the
    live chunks' op counters and the hot-prefix sketch. Structural and
    policy state (chunks, munks, caches, heat) is untouched. *)

val metrics_residue : t -> string list
(** Names of resettable metrics that are currently non-zero (counters,
    timers, span aggregates, per-chunk fields, sketch total). Empty
    right after {!reset_metrics} on a quiescent store — regression
    guard for reset coverage of new tables. *)
