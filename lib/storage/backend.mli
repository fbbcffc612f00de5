(** Pluggable storage backends.

    A backend is a flat namespace of append-only files, packaged as a
    first-class module satisfying {!BACKEND}. {!Env} drives every
    engine's I/O through exactly one (possibly middleware-wrapped)
    backend, so engines run unchanged on any stack:

    {v  Env  →  Counting (Io_stats)  →  [Fault]  →  Disk | Memory  v}

    Middleware ({!Fault.wrap}, {!Counting.wrap}) consumes a {!packed}
    backend and returns a new one wrapping it. Failures raise
    {!Io_error.Io_error}; [Not_found] / [Invalid_argument] keep their
    historical meaning for missing files and bad ranges. *)

module type BACKEND = sig
  type handle
  (** An open, append-only file. *)

  val backend_name : string

  val create : string -> handle
  (** Create (or truncate) a file, open for appending. *)

  val open_append : string -> handle
  (** Open positioned at the end; creates the file if absent. *)

  val append : handle -> bytes -> pos:int -> len:int -> unit
  val handle_size : handle -> int
  val fsync : handle -> unit
  val close : handle -> unit

  val size : string -> int
  (** Raises [Not_found] for a missing file. *)

  val read_at : string -> off:int -> len:int -> string

  val pread : string -> off:int -> len:int -> Evendb_util.Bigslice.t
  (** Partial read returning a bigarray-backed slice: an mmap window on
      the disk backend (zero-copy), a private buffer on the memory
      backend. Same bounds/missing-file contract as [read_at]. The
      slice is only guaranteed stable until the file is deleted,
      renamed, or created over. *)

  val exists : string -> bool
  val delete : string -> unit
  val rename : old_name:string -> new_name:string -> unit
  val list_files : unit -> string list

  val sync_namespace : unit -> bool
  (** Make the whole namespace durable in one shot, if the backend can;
      [false] means the caller must fsync open handles itself. *)

  val supports_crash : bool

  val crash : unit -> unit
  (** Discard all unsynced data (power-failure simulation). Raises
      [Invalid_argument] when [supports_crash] is false. *)
end

type packed = B : (module BACKEND with type handle = 'h) -> packed

val memory : unit -> packed
(** In-process filesystem with crash simulation: each file tracks its
    last-fsynced length and [crash] discards every unsynced suffix. *)

val memory_of_files : (string * string) list -> packed
(** A memory backend pre-populated with the given [(name, contents)]
    files, all fully synced — how {!replay_prefix} materializes a
    post-crash filesystem. *)

val disk : string -> packed
(** Real files under a directory (created if missing); fsync maps to
    [Unix.fsync]. Unix failures surface as {!Io_error.Io_error}. File
    names may carry a ["quarantine/"] prefix (fsck's quarantine
    sub-directory); [list_files] reports those as ["quarantine/x"]. *)

(** {2 Reserved namespaces}

    Directory components that {!prefixed} keeps outermost and that the
    engines' recovery sweeps leave alone: fsck's quarantine area,
    published snapshots and the telemetry journal. *)

val quarantine_dir : string
val snapshots_dir : string
val telemetry_dir : string

val has_prefix : prefix:string -> string -> bool
val strip : prefix:string -> string -> string
(** [strip ~prefix s] drops the first [String.length prefix] bytes of
    [s]; callers check {!has_prefix} first. *)

val prefixed : prefix:string -> packed -> packed
(** A flat sub-namespace: every file name is mapped to [prefix ^ name]
    in the inner backend (["quarantine/x"] to ["quarantine/" ^ prefix ^
    "x"], keeping fsck's quarantine directory outermost), and
    [list_files] returns only this sub-namespace's files with the
    prefix stripped. The prefix must be non-empty and contain no ['/']
    — it lives inside the name, so backends that only list top-level
    files still see everything. Disjoint prefixes give disjoint
    namespaces over one shared backend (the shard substrate); [crash] /
    [sync_namespace] act on the whole underlying namespace. *)

(** {2 Mutation journal}

    The crash-point explorer's substrate: {!journaled_memory} records
    every completed state-changing operation (create / open / append /
    fsync / delete / rename / sync-all), and {!replay_prefix}
    reconstructs the filesystem as it would look if power had failed
    right after op [k] — metadata operations are durable when issued,
    appended bytes only once fsynced. *)

type journal

type crash_mode =
  | Drop_unsynced  (** every file keeps exactly its synced prefix *)
  | Reorder_unsynced of int
      (** each file independently keeps a seeded random amount of its
          unsynced suffix (possibly torn mid-record) — a disk that
          reorders unsynced writes across files *)

val journaled : journal -> packed -> packed
(** Middleware recording completed mutations into the journal. *)

val journaled_memory : unit -> journal * packed
(** A fresh memory backend under a fresh journal. *)

val journal_length : journal -> int
(** Number of ops recorded so far — one more than the largest useful
    crash point. *)

val replay_prefix : journal -> ?mode:crash_mode -> int -> packed
(** [replay_prefix j ~mode k] replays ops [0, k) into a fresh memory
    backend and crashes it per [mode] (default {!Drop_unsynced}). The
    journal itself is not consumed; any prefix can be replayed any
    number of times. *)
