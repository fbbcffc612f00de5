(** Chunk metadata (§3.1).

    "All chunks are represented in memory via light-weight volatile
    metadata objects" — the key range start, links into the chunk list,
    references to the funk and (optionally) the munk, the rebalance
    lock, the per-chunk put counter, the partitioned bloom filter
    maintained while the chunk has no munk, and the chunk's access
    record: op counters plus the munk cache's LFU frequency (§4).

    Chunks are immutable in their key range; splits retire a chunk and
    insert two fresh ones. *)

open Evendb_util
open Evendb_bloom
open Evendb_munk

type t

type freq = { count : int; epoch : int }
(** The LFU frequency as the munk-cache policy last wrote it: [count]
    as of the policy's decay epoch [epoch]. Only {!Lfu} reads it
    (decaying it to the current epoch) and writes it, under its
    mutex. *)

val no_freq : freq
(** Count 0 — what a chunk built by {!create} starts with. *)

val create : id:int -> min_key:string -> funk:Funk.t -> munk:Munk.t option -> t

val id : t -> int
val min_key : t -> string

val next : t -> t option
val set_next : t -> t option -> unit

val funk : t -> Funk.t
(** Current funk (unpinned — use {!Funk.with_pin} with {!funk} as the
    fetcher for reads that survive funk flips). *)

val set_funk : t -> Funk.t -> unit

val munk : t -> Munk.t option
val set_munk : t -> Munk.t option -> unit

val retired : t -> bool
val retire : t -> unit

val rebalance_lock : t -> Rwlock.t

val funk_change_mutex : t -> Mutex.t
(** Serializes funk rebuilds of this chunk (the paper's
    funkChangeLock). *)

val next_counter : t -> int
(** Monotone per-chunk counter ordering same-version puts (§3.3). *)

val counter_base : t -> int
(** Current counter value, for children to inherit on split. *)

val create_inheriting :
  id:int -> min_key:string -> funk:Funk.t -> munk:Munk.t option -> counter:int -> freq:freq -> t
(** A split child or merged chunk: it continues the put counter and the
    LFU frequency ([freq parent]) of the chunk it replaces. Its op
    counters start at zero; the retired chunk keeps its own. *)

val freq : t -> freq
val set_freq : t -> freq -> unit

(** {2 Bloom filter of the funk log (munk-less chunks)} *)

val bloom_note_put : t -> key:string -> log_offset:int -> unit
(** Record a log append in the chunk's partitioned bloom, if one is
    active. Caller must hold the put-side synchronization (shared
    rebalance lock); internal mutex orders concurrent writers. *)

val bloom_segments : t -> string -> (int * int) list option
(** Candidate log ranges possibly holding the key; [None] when no
    bloom is active (search the whole log). *)

val set_bloom : t -> Partitioned_bloom.t option -> unit

(** {2 Access counters}

    Lock-free counts of what happened to this chunk, for the heat map
    ({!Db.chunk_stats}). [record_get] classifies a get once, by the
    component that served it. *)

val record_get : t -> Read_stats.component -> unit
val record_put : t -> unit

val record_scan : t -> unit
(** One scan visiting this chunk (not one scan call). *)

val record_rebalance : t -> unit

val record_split : t -> unit
(** Count the split that produced this chunk: a split retires its
    parent, whose record no live listing reaches. *)

type stat = {
  st_gets : int;
  st_puts : int;
  st_scans : int;  (** chunk visits by scans, not scan calls *)
  st_munk_hits : int;
  st_row_hits : int;
  st_funk_reads : int;  (** log, SSTable or missing *)
  st_rebalances : int;
  st_splits : int;  (** 1 for a split child, else 0 *)
  st_heat : int;  (** the LFU frequency, as {!Lfu.frequency} decays it *)
}

val stat : t -> heat:int -> stat

val reset_counters : t -> unit
(** Zero the op counters; the LFU frequency is policy state and stays. *)

val counter_residue : t -> string list
(** Names ([chunk.<id>.<counter>]) of the non-zero op counters. *)

val covers : t -> key:string -> bool
(** [min_key t <= key < next(t).min_key] (upper bound open-ended for
    the last chunk). *)
