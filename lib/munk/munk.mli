(** Munk: the in-memory representation of a chunk (§3.1).

    "A munk holds KV pairs in an array-based linked list. When a munk
    is created, some prefix of this array is populated, sorted by key
    [...] New KV entries are appended after this prefix. As new entries
    are added, they create bypasses in the linked list [...] Keys can
    thus be searched efficiently via binary search on the sorted prefix
    followed by a short traversal of a bypass path."

    Entries are kept in canonical order (key ascending, then newest
    version first); multiple versions of a key are adjacent cells in
    the list. Lookups and iteration are lock-free: cells are immutable
    records replaced wholesale (a single pointer store) and list
    splicing publishes the new cell's [next] before linking it in.
    Mutations ([put]) are serialized by an internal mutex — the
    caller's chunk-level rebalanceLock only coordinates puts with
    rebalance, not puts with each other. *)

open Evendb_util

type t

val of_sorted : Kv_iter.entry list -> t
(** Build from entries already in {!Kv_iter.compare_entries} order
    (they become the sorted prefix). Raises [Invalid_argument] if out
    of order. *)

val of_iter : Kv_iter.t -> t

val entry_count : t -> int
(** Live cells, including superseded versions awaiting rebalance. *)

val appended_count : t -> int
(** Cells inserted since the sorted prefix was built — the unsorted
    region whose growth triggers munk rebalance. *)

val byte_size : t -> int
(** Approximate heap footprint of keys+values. The rebalance trigger
    compares it against a limit chosen from {!built_bytes}, so a munk's
    size alone does not decide whether it rebalances. *)

val built_bytes : t -> int
(** [byte_size] at the moment the sorted prefix was built ({!of_sorted}
    or {!rebalance}); fixed for the munk's lifetime. *)

val tombstone_count : t -> int
(** Live tombstone cells — drives opportunistic compaction and the
    underflow-merge trigger. *)

val put : t -> ?may_discard:(old_version:int -> new_version:int -> bool) -> Kv_iter.entry -> unit
(** Insert an entry. If it directly supersedes the current newest
    version of its key and [may_discard ~old_version ~new_version]
    holds (no active scan needs the old version), the cell is replaced
    in place; otherwise a new cell is linked in, retaining the old
    version for concurrent scans. Default [may_discard]: never — all
    versions retained. *)

val find_latest : t -> ?max_version:int -> string -> Kv_iter.entry option
(** Newest entry for the key with version [<= max_version]. Returns
    tombstones. Lock-free. *)

val iter : t -> Kv_iter.t
(** Iterate the whole munk in canonical order. Lock-free; concurrent
    puts may or may not be observed. *)

val iter_range : t -> low:string -> high:string -> Kv_iter.t
(** Entries with [low <= key <= high]. *)

val rebalance : t -> min_retained_version:int option -> t
(** Build a fresh compacted, fully-sorted munk (§3.4). Must run with
    puts blocked (chunk rebalanceLock held exclusively); concurrent
    reads of the old munk remain valid. *)

val split_entries : t -> min_retained_version:int option -> Kv_iter.entry list * Kv_iter.entry list
(** Compact and {!split_list}. Used by hot chunk splits. *)

val split_list : Kv_iter.entry list -> Kv_iter.entry list * Kv_iter.entry list
(** Split canonically ordered entries into two halves of roughly equal
    byte size, never between two versions of one key; the second half
    is non-empty when there are at least two distinct keys. Used by
    cold (munk-less) chunk splits too. *)

val entry_bytes : Kv_iter.entry -> int
(** One entry's share of {!byte_size}: the chunk-size measure splits
    are decided on. *)
