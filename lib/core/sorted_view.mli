(** REMIX-style persistent sorted view of one funk.

    A small sidecar file ([funk_%08d.view]) that persists the merge
    order of a funk's sstable and log so cold scans walk one cursor
    over pre-sorted tokens instead of re-merging (fold + sort) the log
    on every scan. Token [0] means "next sstable entry in file order";
    token [k > 0] means "the log record framed at byte [k-1]". The
    file holds no keys: a range seek asks {!Sstable.Reader.seek} for
    the rank of the first sstable entry at or above the low bound
    (one block read through the block index) and starts the walk just
    after the sstable token of the rank before it, whose position
    {!load} keeps in memory. A scan costs that seek plus the tokens it
    pulls.

    Views are derived data: they are rebuilt whenever a funk is
    created or its munk is evicted, validated end to end at {!load}
    (trailer CRC, sstable identity, covered-log-prefix CRC), and
    re-verified record by record while scanning — any disagreement
    raises {!Stale} and the caller falls back to the merge path. A
    sidecar in an older format fails validation the same way and
    serves no scan until the funk's next view rebuild replaces it. Log
    records appended after the build are merged in at scan time from
    the uncovered suffix. Losing or corrupting a view never loses
    data; repair is always regeneration. *)

open Evendb_storage
open Evendb_sstable

type t

exception Stale
(** The view no longer matches the funk underneath it (mid-walk CRC
    disagreement, sstable exhausted early, log truncated). Raised
    lazily by the iterator {!cursor} returns. *)

val build :
  Env.t -> sst:Sstable.Reader.t -> log_name:string -> view_name:string -> unit
(** Merge the sstable with the log's current contents and atomically
    publish the view (tmp + fsync + rename; an interrupted build
    leaves only a [.tmp] the scrubber sweeps). The caller must hold
    the funk exclusively — a log append racing the build would be
    covered by [log_crc] but not by a token. Raises {!Env.Io_error}
    on storage failure (after deleting the tmp). *)

val load :
  Env.t -> sst:Sstable.Reader.t -> log_name:string -> view_name:string -> t option
(** Read and validate the view. [None] if the file is missing,
    corrupt, or describes a different sstable/log state (stale).
    Never raises on bad bytes — a view failing validation is simply
    not used. *)

val cursor :
  t -> Env.t -> sst:Sstable.Reader.t -> log_name:string -> low:string -> high:string ->
  Evendb_util.Kv_iter.t
(** Sorted iterator over the funk's entries with [low <= key <= high]
    (inclusive), in {!Evendb_util.Kv_iter.compare_entries} order:
    the token walk (seeked by sstable rank) merged with the sorted
    uncovered log suffix. Tokens and sstable blocks are read only as
    entries are pulled, so a caller that stops early pays only for
    what it took. Creating the cursor and pulling from it may raise
    {!Stale} or {!Env.Corruption}; a caller must not commit entries
    it pulled before such a failure. *)

val well_formed : string -> bool
(** Structural self-check of raw view bytes (magic + trailer CRC +
    parseable layout) — the scrubber's test. Staleness is NOT a
    structural failure: a valid view of an older log state is healthy
    derived data awaiting rebuild. *)

val token_count : t -> int
val covered_log_bytes : t -> int
