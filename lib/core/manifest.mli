(** Funk manifest: the set of live funk ids plus the next id to
    allocate.

    Rewritten atomically (temp + fsync + rename) whenever the funk set
    changes (funk rebalance completion, split completion). On recovery
    the manifest determines which funk files are live; anything else
    on disk is a leftover of an interrupted rebuild and is deleted.
    Funk *contents* still self-describe (min-key in the SSTable
    header), keeping the manifest a tiny id list rather than a
    WAL-like log of range metadata. *)

open Evendb_storage

type t = {
  next_id : int;
  live : int list; (* funk ids, unordered *)
}

val file_name : string

val store : ?name:string -> Env.t -> t -> unit
val load : ?name:string -> Env.t -> t option
(** [None] when no manifest exists (fresh database). Raises
    [Env.Corruption] on corruption. [?name] overrides the location
    (default {!file_name}) — snapshots keep a pinned copy under their
    own namespace. *)
