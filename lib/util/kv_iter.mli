(** Versioned key-value entries and iterators.

    Every storage component (munks, funk logs, SSTables, LSM levels)
    yields entries of the same shape so that merging, compaction and
    scans are written once. An entry with [value = None] is a tombstone
    (a logical delete that must be retained until compaction proves no
    older version remains below it). *)

type entry = {
  key : string;
  value : string option; (* [None] = tombstone *)
  version : int;
  counter : int; (* per-chunk tie-break for same-version puts *)
}

val entry_newer : entry -> entry -> bool
(** [entry_newer a b] when [a] supersedes [b] for the same key:
    higher version, or equal version and higher counter. *)

val compare_entries : entry -> entry -> int
(** Orders by key ascending, then newest-first ([entry_newer] first).
    This is the canonical on-disk and in-merge order. *)

type t = unit -> entry option
(** A pull iterator: [next ()] yields entries in {!compare_entries}
    order and [None] at exhaustion. Single-use. *)

val of_list : entry list -> t
(** The list must already be sorted by {!compare_entries}. *)

val to_list : t -> entry list

val merge : t list -> t
(** Heap-merge of sorted iterators into one sorted stream. On ties
    (same key, version and counter) the iterator earliest in the input
    list wins and later duplicates are still emitted (use {!dedup} or
    {!compact} to drop them). *)

val dedup : t -> t
(** Keep only the newest entry per key (including tombstones). Input
    must be sorted. *)

val compact : ?min_retained_version:int -> ?drop_tombstones:bool -> t -> t
(** Compaction filter (paper §3.4): for each key, keep the newest
    entry, plus every version down to (and including) the newest
    version at or below [min_retained_version], which an active scan
    may still need. When [min_retained_version] is absent, only the
    newest version per key survives. Tombstones at the old end of a
    key's retained list are dropped when [drop_tombstones] (default
    [true]; pass [false] for partial compactions where older data may
    survive elsewhere, e.g. lower LSM levels). *)

val filter : (entry -> bool) -> t -> t

val upto : high:string -> t -> t
(** The prefix of the stream with keys [<= high]; stops pulling the
    input at the first key past [high]. *)
