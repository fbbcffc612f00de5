(** Funk: the file representation of a chunk (§2.2).

    "For persistence, each chunk has a file representation called funk,
    which holds all the KV-pairs in the chunk's range [...] the funk is
    divided into two parts: (1) a sorted SSTable, and (2) an unsorted
    log. New updates are appended to the log."

    A funk owns two files, [funk_<id>.sst] and [funk_<id>.log], and
    backs exactly one chunk: splits build one funk per child rather
    than sharing the parent's. Funks are replaced wholesale by flushes,
    funk rebalances, splits and merges; readers pin a funk with
    {!acquire}/{!release} so that its files are only deleted once the
    last reader drains ({!retire} marks it replaceable). The
    SSTable header stores the chunk's min-key, which is what recovery
    reconstructs chunk metadata from (§3.5). *)

open Evendb_util
open Evendb_sstable
open Evendb_storage

type t

val create_from_iter :
  Env.t -> block_bytes:int -> id:int -> min_key:string -> Kv_iter.t -> t
(** Build a funk whose SSTable holds the iterator's entries (canonical
    order) and whose log is empty. Fsyncs the SSTable. *)

val open_existing : Env.t -> id:int -> t
(** Open after recovery; the log is positioned after its last valid
    record. Raises [Invalid_argument] if the SSTable is malformed. *)

val id : t -> int
val min_key : t -> string
val sst : t -> Sstable.Reader.t
val env : t -> Env.t

val append : t -> Kv_iter.entry -> int
(** Append one record to the log; returns its byte offset. *)

val log_size : t -> int

val total_bytes : t -> int
val fsync_log : t -> unit

(** {2 Read paths} *)

val get_from_log :
  t -> ?segments:(int * int) list -> visible:(int -> bool) -> max_version:int -> string ->
  Kv_iter.entry option
(** Newest visible log record for the key with version [<= max_version].
    [segments] (from the partitioned bloom) restricts the byte ranges
    scanned, newest range first; default: the whole log. An empty log
    ({!log_size} 0) answers [None] without touching the file. *)

val get_from_sst : t -> visible:(int -> bool) -> max_version:int -> string -> Kv_iter.entry option

val log_entries_in_range :
  t -> visible:(int -> bool) -> low:string -> high:string -> Kv_iter.entry list
(** All visible log records with [low <= key <= high], in canonical
    order (for scans and merges); [[]] at once for an empty log. *)

val all_entries : ?hi:int -> t -> visible:(int -> bool) -> Kv_iter.t
(** SSTable merged with the sorted log — the chunk's full visible
    content (munk load, funk rebalance). [hi] bounds the log to the
    records framed below that offset (default: the whole log). *)

val log_offsets_for_bloom : t -> visible:(int -> bool) -> (int * string) list
(** [(offset, key)] of every valid log record, for rebuilding the
    partitioned bloom filter after munk eviction or recovery. *)

(** {2 Lifecycle} *)

val acquire : t -> bool
(** Pin; [false] if already retired (caller refetches the chunk's
    current funk). *)

val release : t -> unit
val retire : t -> unit
(** Mark replaced and drop the owning chunk's reference; files are
    deleted when the last pin is released. Must not race with appends
    (callers hold the chunk's rebalanceLock exclusively when flipping
    funks), and must follow the manifest store that drops the funk, so
    a crash never leaves a manifest-live funk with deleted files. *)

exception Stale
(** Raised by {!with_pin} when the funk stays retired across retries —
    the owning chunk was replaced; re-resolve it through the index. *)

val with_pin : current:(unit -> t) -> (t -> 'a) -> 'a
(** Pin the chunk's current funk (retrying across concurrent funk
    flips), run the function, release. Raises {!Stale} if the chunk
    itself was retired. The function itself is never re-run. *)

val close_log : t -> unit
(** Close the log's file handle (database shutdown). *)
