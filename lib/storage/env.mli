(** Storage environment: a flat namespace of append-only files.

    All engines (EvenDB, the LSM and FLSM baselines) perform I/O
    exclusively through an [Env.t]. Underneath sits a layered stack of
    pluggable backends (see {!Backend}):

    {v  Env  →  Counting (Io_stats)  →  [Fault]  →  Disk | Memory  v}

    - {!disk} — real files under a directory (fsync maps to
      [Unix.fsync]);
    - {!memory} — an in-process filesystem that additionally models
      crashes: each file tracks its last-fsynced length, and {!crash}
      discards every unsynced suffix, which is how the recovery tests
      validate the paper's prefix-consistency guarantee (§3.5);
    - {!of_backend} — any custom {!Backend.packed} composition.

    Passing [?faults] threads a {!Fault.plan} into the stack, injecting
    deterministic append/fsync/rename failures and torn tail writes.
    Storage failures — real or injected — surface as the typed
    {!Io_error} exception; [Not_found] (missing file) and
    [Invalid_argument] (bad range) keep their historical meaning.

    Files are append-only (SSTables are written once; logs only grow),
    matching the paper's funk layout. Metadata operations (create,
    delete, rename) are treated as immediately durable; only appended
    data is subject to loss on [crash].

    All operations are thread-safe. *)

exception Io_error of Io_error.info
(** Typed storage failure (re-export of {!Io_error.Io_error}). *)

exception Corruption of Io_error.corruption
(** Typed on-disk corruption — a read answered but the bytes failed a
    checksum or structural check (re-export of {!Io_error.Corruption}).
    Raised by format readers (SSTable, manifest, checkpoint); engines
    degrade to a surviving replica where one exists, and every
    detection is counted (see {!corruptions_detected}). *)

module type BACKEND = Backend.BACKEND
(** Re-export, so implementing a custom backend needs only [Env]. *)

(** {2 Quarantine}

    [fsck --repair] moves files it cannot trust under the
    ["quarantine/"] prefix instead of deleting them. Recovery sweeps
    and the scrubber skip that prefix. *)

val quarantine_prefix : string

val quarantined : string -> string
(** [quarantined name] is the name's quarantine location. *)

val is_quarantined : string -> bool

(** {2 Snapshots namespace}

    Published point-in-time snapshots pin copies of the manifest,
    checkpoint and funk set under ["snapshots/<id>/"]. Like quarantine,
    the prefix is invisible to the live store's recovery sweep. *)

val snapshot_member : id:string -> string -> string
(** [snapshot_member ~id name] is [name]'s location inside snapshot
    [id]: ["snapshots/<id>/<name>"]. *)

val is_snapshot : string -> bool

val split_snapshot : string -> (string * string) option
(** [split_snapshot "snapshots/<id>/<name>"] is [Some (id, name)];
    [None] for anything else (including the bare directory entries). *)

(** {2 Telemetry namespace}

    The continuous-telemetry sampler journals its windowed metric
    samples under ["telemetry/"]. The prefix is observational history —
    recovery sweeps skip it, and the scrubber checks (and quarantines)
    its segments without ever blocking a store open. *)

val telemetry_prefix : string

val is_telemetry : string -> bool

type t
type file

val disk : ?faults:Fault.plan -> string -> t
(** [disk dir] creates [dir] if missing and roots the namespace there. *)

val memory : ?faults:Fault.plan -> unit -> t

val of_backend : ?faults:Fault.plan -> Backend.packed -> t
(** Mount an arbitrary backend stack. The [Counting] (stats) layer is
    always applied outermost; [?faults] is spliced directly beneath it. *)

val sub : t -> prefix:string -> t
(** A child environment over a {!Backend.prefixed} view of this
    environment's full stack: disjoint prefixes partition one backend
    into independent flat namespaces (one per shard). The child has its
    own {!stats}; the parent's stats and fault plan still see (and may
    inject into) every child operation. *)

val stats : t -> Io_stats.t

val backend_name : t -> string
(** The full middleware stack, e.g. ["counting+faulty(7:0.01)+memory"]. *)

val supports_crash : t -> bool
(** Whether {!crash} is meaningful for this env's backend. Query this
    instead of catching the [Invalid_argument] that {!crash} raises on
    backends without crash simulation. *)

val faults : t -> Fault.plan option

(** {2 Integrity counters} *)

val note_corruption : t -> unit
(** Called by format readers at every corruption detection site. *)

val corruptions_detected : t -> int

val note_log_resync : t -> unit
(** Called by the log reader for every garbage region it skipped over
    while resynchronizing on record CRCs. *)

val log_resyncs : t -> int

(** {2 Writing} *)

val create : t -> string -> file
(** Create (or truncate) a file and open it for appending. *)

val open_append : t -> string -> file
(** Open an existing file positioned at its end; creates it if absent. *)

val append : file -> string -> unit
val append_bytes : file -> bytes -> pos:int -> len:int -> unit

val file_size : file -> int
(** Current size including unflushed appends. After a failed (torn)
    append this reflects the bytes that actually reached the backend. *)

val flush : file -> unit
val fsync : file -> unit
(** [fsync] implies [flush]. *)

val close_file : file -> unit

(** {2 Reading} *)

val size : t -> string -> int
(** Raises [Not_found] if the file does not exist. *)

val read_at : t -> string -> off:int -> len:int -> string
(** Reads exactly [len] bytes; raises [Invalid_argument] if the range
    exceeds the file. Accounted in {!stats}. *)

val read_all : t -> string -> string

val pread : t -> string -> off:int -> len:int -> Evendb_util.Bigslice.t
(** Partial read returning a bigarray-backed slice — an mmap window on
    disk, a private copy in memory (see {!Backend.BACKEND.pread}).
    Same bounds/missing-file contract and stats accounting as
    {!read_at}. *)

val exists : t -> string -> bool

(** {2 Shared block cache}

    An environment may carry one {!Evendb_cache.Block_cache.t},
    shared by every sstable reader opened through it. {!sub} children
    inherit the parent's cache (one budget across all shards), each
    under its own {!cache_space} so equal file names in sibling
    namespaces never collide. The environment invalidates cached
    blocks on {!delete}, {!rename} and {!crash}. *)

val install_block_cache : t -> capacity_bytes:int -> unit
(** Install a fresh cache of the given capacity, unless one is already
    present (inherited or installed) or [capacity_bytes = 0]. *)

val set_block_cache : t -> Evendb_cache.Block_cache.t option -> unit
val block_cache : t -> Evendb_cache.Block_cache.t option

val counters : t -> (string * (unit -> int)) list
(** The environment's counters as named readers, for an engine to
    register as metrics probes (this layer does not depend on the
    metrics registry): [io.<kind>.bytes_written] and
    [io.<kind>.bytes_read] per file kind, [faults.injected],
    [io.corruptions], [log.resyncs] and the block cache's
    [blockcache.hits|misses|fills|evictions|bytes] (0 without a cache;
    a shared cache reports its store-wide totals). *)

val cache_space : t -> int
(** This environment's cache-key namespace (process-globally unique). *)

(** {2 Namespace} *)

val delete : t -> string -> unit
(** Removes the file; no-op if absent. *)

val rename : t -> old_name:string -> new_name:string -> unit
(** Atomic replace, used to publish rebuilt funks and manifests. *)

val list_files : t -> string list
(** All file names, unsorted. *)

val space_used : t -> int
(** Total bytes across all files (Figure 4). *)

(** {2 Durability control} *)

val fsync_all : t -> unit
(** Make everything durable (checkpointing, §3.5): one namespace sync
    if the backend supports it, otherwise an fsync of every open file. *)

val crash : t -> unit
(** Crash-capable backends only: discard all unsynced data and
    invalidate open file handles, simulating a power failure. Raises
    [Invalid_argument] when {!supports_crash} is [false]. *)
