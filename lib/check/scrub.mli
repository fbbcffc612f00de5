(** On-disk integrity scrubber ([evendb fsck]).

    Walks every file of a store directory — without opening the store —
    classifies each by {!Evendb_core.Layout} (refined for the baseline
    engines, backup archives and telemetry journals), and verifies
    whatever integrity that kind of file promises: SSTable checksums
    and structural tiling, log record framing, metadata payload CRCs,
    and the cross-file referential integrity of the EvenDB manifest
    (every live funk id must resolve to files, some live funk must
    carry the sentinel "" min-key). Members of published snapshots are
    verified like their live-store counterparts; a torn tail on the
    {e newest} telemetry segment is only a warning.

    A sharded store (a [SHARDS] file at the root) is walked one shard
    namespace at a time, plus the CRC of [SHARDS]; findings carry the
    shard-qualified name (["s00.funk_00000000.sst"]).

    [Orphan] and [Leftover_tmp] findings name exactly the files the
    next recovery deletes ({!Evendb_core.Layout.swept}).

    {!repair} additionally fixes what it can. The rule is: never
    destroy bytes — an untrusted file is {e quarantined} (renamed under
    ["quarantine/"], which recovery sweeps ignore) before anything is
    rebuilt in its place, and rebuilt content comes only from
    CRC-verified fragments ({!Sstable.Reader.salvage}, valid log
    records). Acked-and-synced data therefore survives repair; what a
    corruption already destroyed is reported, not resurrected. *)

open Evendb_storage

type severity = Error | Warning

type kind =
  | Bad_checksum  (** payload or block failed its CRC *)
  | Structural  (** malformed layout, bad refs, missing sentinel *)
  | Log_garbage  (** undecodable log region (torn tail or bit rot) *)
  | Missing_file  (** a manifest-live file, or a shard's manifest, is absent *)
  | Orphan  (** a file the recovery sweep deletes *)
  | Leftover_tmp  (** interrupted write-tmp-then-rename *)
  | Unknown_file  (** name matches no known layout *)

type finding = {
  f_file : string;
  f_severity : severity;
  f_kind : kind;
  f_detail : string;
}

type report = {
  files_checked : int;
  findings : finding list;  (** sorted by file name *)
  actions : (string * string) list;
      (** (file, what was done) — empty unless repairing *)
}

val errors : report -> finding list
val is_clean : report -> bool
(** No [Error]-severity findings. *)

val scrub : Env.t -> report
(** Verify everything; mutate nothing. *)

val repair : Env.t -> report
(** Scrub, then fix what can be fixed: quarantine corrupt files,
    rebuild SSTables from salvageable blocks (plus, for funks, the keys
    still covered by the funk's log), rewrite logs to their valid
    records, reconstruct the EvenDB MANIFEST from the funk files
    present, reset an unreadable MODE to the conservative async,
    and delete leftover [.tmp] files — each inside its shard's
    namespace. The returned report carries the
    {e post}-repair findings (what remains wrong) plus the action log. *)

val pp_report : Format.formatter -> report -> unit
