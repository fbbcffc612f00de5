(** Block-based Sorted String Table.

    The compacted, sorted half of a funk (§2.2) and the file format of
    the LSM/FLSM baselines. Entries are stored in canonical order (key
    ascending, then newest version first) in ~4 KB blocks; an index of
    (first key, offset, length) per block is loaded into memory when
    the table is opened, so a point lookup reads exactly one block run.

    The header records the owning chunk's minimal key, which lets
    EvenDB rebuild its chunk list from the funk files alone on
    recovery — there is no global manifest to replay (§3.5). An
    optional embedded Bloom filter serves the LSM baselines.

    Every region is covered by a CRC32C — the header's min-key, each
    data block, the bloom section and the index — and the footer's
    offsets must tile the file exactly, so any single flipped byte is
    detected on read and surfaces as the typed {!Env.Corruption}.

    Files are immutable once [finish]ed; readers are safe to share
    across domains. *)

open Evendb_util
open Evendb_storage

module Builder : sig
  type t

  val create :
    Env.t -> ?block_size:int -> ?bloom_bits_per_key:int -> ?with_bloom:bool ->
    name:string -> min_key:string -> unit -> t
  (** Start writing table [name]. [min_key] is recorded in the header
      (the chunk's range start; baselines pass the first key or ""). *)

  val add : t -> Kv_iter.entry -> unit
  (** Entries must arrive in {!Kv_iter.compare_entries} order; raises
      [Invalid_argument] otherwise. *)

  val entry_count : t -> int

  val finish : t -> unit
  (** Write index + footer, fsync and close. A finished empty table is
      valid and opens to an empty reader. If an I/O failure interrupts
      the tail sections, the partial file is deleted and the error
      re-raised — a table never exists half-written. *)

  val abort : t -> unit
  (** Discard an unfinished build: close and delete the partial file.
      Call when an {!Env.Io_error} interrupted {!add}. No-op after
      [finish]. *)
end

module Reader : sig
  type t

  val open_ : Env.t -> string -> t
  (** Loads header, block index and bloom filter, verifying their
      checksums and the footer's structural invariants. Raises
      {!Env.Corruption} (and counts it on the env) if the file is
      missing, malformed or fails a checksum. *)

  val verify : t -> unit
  (** Verify every data block's checksum ([open_] already verified the
      rest). Raises {!Env.Corruption} on the first bad block. *)

  val salvage : Env.t -> string -> string option * Kv_iter.entry list
  (** Best-effort extraction from a damaged table (fsck --repair):
      the header min-key if its checksum holds, plus the entries of
      every block whose checksum holds. Drops anything unverifiable —
      never resurrects garbage, never raises {!Env.Corruption}. *)

  val name : t -> string
  val chunk_min_key : t -> string
  val entry_count : t -> int

  val first_key : t -> string option
  val last_key : t -> string option
  (** Smallest/largest user key present (None when empty). *)

  val get : t -> ?max_version:int -> string -> Kv_iter.entry option
  (** Newest entry for the key with [version <= max_version]
      (default: newest overall). Tombstones are returned, not
      filtered: the caller decides what a delete means at its level. *)

  val get_all_versions : t -> string -> Kv_iter.entry list
  (** All stored versions of a key, newest first. *)

  val may_contain : t -> string -> bool
  (** Bloom check; [true] when no bloom was embedded. *)

  val iter : t -> Kv_iter.t
  (** Full scan in canonical order. Blocks are fetched lazily. *)

  val iter_from : t -> string -> Kv_iter.t
  (** Scan starting at the first entry with key >= the argument. Reads
      only the block the index names for it; later blocks are fetched
      as the iterator is pulled. *)
end
