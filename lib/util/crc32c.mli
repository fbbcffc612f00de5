(** CRC-32C (Castagnoli) checksum.

    Used to frame on-disk records (funk-log entries, SSTable footers) so
    that torn writes and corruption are detected on recovery.

    The algorithm is table-driven slicing-by-8 (Intel's, as in
    LevelDB/RocksDB's portable path): one 8x256 table built at module
    initialization advances the register over 8 input bytes with one
    word load and eight lookups; a tail shorter than a word goes a byte
    at a time. The register is held in a native [int], which assumes
    [int] has 63 bits (a 64-bit platform). All entry points share the
    table and the word and byte steps, and return the same value for
    the same bytes. *)

val string : ?init:int32 -> string -> int32
(** [string s] is the CRC-32C of [s]. [init] continues a running
    checksum (default: fresh). *)

val bytes : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [bytes b ~pos ~len] checksums the given slice. *)

val bigslice : ?init:int32 -> Bigslice.t -> pos:int -> len:int -> int32
(** [bigslice b ~pos ~len] checksums a bigarray-backed slice without
    copying it — the fill-time verification path of the block cache. *)

val mask : int32 -> int32
(** [mask crc] applies the standard rotation+offset masking (as in
    LevelDB/RocksDB) so that checksums of data containing embedded CRCs
    remain well-distributed. *)

val unmask : int32 -> int32
(** Inverse of {!mask}. *)
