(** Funk-grained incremental backup over published snapshots.

    {!ship} packs one snapshot into a self-describing, CRC-trailered
    archive ([backup_<seq>.evbk]) in a destination environment. With a
    [base_id], only what changed since the base snapshot is shipped:
    SSTables of funks shared with the base are carried by reference and
    their append-only logs ship only the suffix grown since the base —
    the funk-grained increment. {!restore} folds a chain of archives
    (one full + any number of incrementals) back into a store directory
    that opens and passes [evendb fsck] clean, equal to the source at
    the last snapshot's cut.

    Interrupted ships leave only a [*.tmp] in the destination (archives
    publish via tmp + fsync + rename); torn or damaged archives fail
    their whole-file CRC, and restore rejects a broken chain instead of
    materializing a partial store. *)

open Evendb_storage

val parse_archive_name : string -> int option

val list_archives : Env.t -> (int * string) list
(** Published archives as [(seq, name)], chain order. *)

type stats = { funks_shipped : int; bytes_shipped : int }

val ship :
  ?obs:Evendb_obs.Obs.t ->
  src:Env.t ->
  dest:Env.t ->
  snapshot_id:string ->
  ?base_id:string ->
  unit ->
  string * stats
(** Pack snapshot [snapshot_id] (which must be published in [src]) into
    the next archive of [dest]; returns the archive name and what was
    shipped. [base_id] enables the incremental diff and is recorded in
    the archive for chain validation at restore. [obs] receives the
    [backup.funks_shipped] / [backup.bytes] counters. *)

val verify : Env.t -> string -> unit
(** Structurally validate one archive (magic, CRCs, section lengths);
    raises [Env.Corruption] with the failing detail. *)

val restore : src:Env.t -> dest:Env.t -> unit
(** Replay the full archive chain of [src] into [dest], which must be
    empty. Raises [Env.Corruption] on a damaged archive or a broken
    chain (wrong base linkage), [Invalid_argument] when [src] has no
    archives or [dest] is non-empty. *)
