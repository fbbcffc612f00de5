(** Append-only record log with CRC framing.

    Used for funk logs (per-chunk, §2.2) and the LSM baseline's WAL.
    Each record frames one versioned KV entry:

    {v [masked crc32c : 4B LE] [payload_len : varint] [payload] v}

    where the payload encodes op/key/version/counter/value. A torn or
    corrupt record is skipped, not fatal: the reader resynchronizes on
    the next valid CRC frame, so a crash that tears the tail of a log
    loses only the unsynced suffix — the behaviour the recovery
    semantics (§3.5) rely on — and a torn record mid-log (a failed
    append followed by successful ones) never hides the acknowledged
    records written after it. *)

open Evendb_util
open Evendb_storage

module Record : sig
  val size : Kv_iter.entry -> int
  (** Length of the framed record for one entry. *)

  val encode : bytes -> Kv_iter.entry -> int
  (** [encode b e] frames [e]'s record in place at the start of [b] and
      returns its length ({!size}). Raises [Invalid_argument] if [b] is
      shorter than that. *)
end

module Writer : sig
  type t

  val create : Env.t -> string -> t
  (** Create or truncate the log. *)

  val open_append : Env.t -> string -> t
  (** Append to an existing log. The tail is scanned to find the end
      of the last valid record; a torn tail is ignored (subsequent
      appends are written after the last valid record boundary as far
      as accounting is concerned — on the memory backend the torn
      bytes were already discarded by the crash). *)

  val append : t -> Kv_iter.entry -> int
  (** Append one record, returning the byte offset at which it starts
      (fed to the partitioned bloom filter). Thread-safe. *)

  val size : t -> int

  val fsync : t -> unit
  val close : t -> unit
end

module Reader : sig
  val fold :
    ?lo:int -> ?hi:int -> Env.t -> string -> init:'a -> f:('a -> int -> Kv_iter.entry -> 'a) -> 'a
  (** [fold ~lo ~hi env name ~init ~f] applies [f acc offset entry] to
      every record whose frame starts in [\[lo, hi)], in log order.
      [lo] must be a record boundary (0 or an offset returned by
      {!Writer.append}). Defaults: the whole log. Missing file =
      empty log. Undecodable bytes (torn or corrupt records) are
      skipped via CRC resynchronization; each maximal garbage run is
      counted once on the env ({!Env.log_resyncs}). *)

  val entries : Env.t -> string -> (int * Kv_iter.entry) list
  (** All valid records with their offsets, in append order. *)

  val valid_prefix_length : Env.t -> string -> int
  (** Byte length of the longest prefix consisting of valid records. *)

  val garbage_regions : Env.t -> string -> (int * int) list
  (** Byte ranges [\[start, stop)] that decode as no valid record —
      torn tails or corrupted bytes — in file order. The scrubber's
      view of a log; does not touch the resync counter. *)
end
