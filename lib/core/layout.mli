(** The on-disk layout of a store: every file name EvenDB writes, the
    markers and their codecs, the shard namespaces, and the one rule
    ({!swept}) by which recovery deletes files and fsck reports
    leftovers.

    Reserved namespaces (see {!Evendb_storage.Env}): ["quarantine/"]
    (fsck's evidence), ["snapshots/<id>/"] (published snapshots) and
    ["telemetry/"] (observational history). A sharded store keeps
    [SHARDS] at the root and one whole store layout per shard under
    the name prefix ["s00."], ["s01."], .... *)

open Evendb_storage

(** {2 Funk files} *)

val sst_name : int -> string
(** ["funk_<8-digit id>.sst"]; {!log_name} is the same with [.log]. *)

val log_name : int -> string

type funk_file = Sst | Log | View  (** [View]: a sorted-view sidecar of earlier builds. *)

(** {2 Markers}

    [MODE] holds the last open's persistence mode, unframed; [FENCED]
    and [FOLLOWER] mean what their presence says (a deposed primary, a
    replication standby); [REPL_LSN] (a follower's applied-LSN
    watermark) and [SHARDS] (the split keys) are CRC-framed. *)

val mode_file : string
val fenced_file : string
val follower_file : string
val repl_lsn_file : string

val mode_of_string : string -> Config.persistence option
(** The MODE payload decoder; {!store_mode} is its encoder. *)

val store_mode : ?name:string -> Env.t -> Config.persistence -> unit
(** Publish MODE (or [name], e.g. a snapshot member) atomically. *)

val load_mode : Env.t -> Config.persistence
(** [Async] when MODE is absent, and when it is unreadable — then
    counted with {!Env.note_corruption}. *)

(** {2 Shards} *)

val max_shards : int

val shard_env : Env.t -> int -> Env.t
(** Shard [i]'s namespace inside a sharded store's root. *)

val shard_file : int -> string -> string
(** The root namespace's name for shard [i]'s file. *)

val is_sharded : Env.t -> bool
val store_shards : Env.t -> string array -> unit

val load_shards : Env.t -> string array option
(** Raises {!Env.Corruption} when SHARDS is damaged. *)

(** {2 Classification} *)

val tmp_name : string -> string
(** A scratch name for [name] that classifies as [Tmp]. *)

type file =
  | Funk of int * funk_file
  | Manifest | Checkpoint | Recovery_table
  | Mode | Fenced | Follower | Repl_lsn | Shards
  | Snapshot of string * string  (** Snapshot id, bare member name. *)
  | Quarantined | Telemetry
  | Tmp  (** Leftover of an interrupted write-then-rename. *)
  | Other  (** Not EvenDB's: a baseline engine's file, or unknown. *)

val classify : string -> file

val swept : live:(int -> bool) -> published:(string -> bool) -> file -> bool
(** Whether recovery of a store whose manifest holds the [live] funk
    ids deletes the file: funk files of other ids, sorted-view
    sidecars, [.tmp] files outside quarantine and telemetry, and every
    member of a snapshot that is not [published] (plus [.tmp] members
    of one that is). Nothing else is ever swept. *)
