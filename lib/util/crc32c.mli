(** CRC-32C (Castagnoli) checksum.

    Used to frame on-disk records (funk-log entries, SSTable footers) so
    that torn writes and corruption are detected on recovery.

    The kernel is a C stub. On x86-64 CPUs with SSE4.2 it runs the
    [crc32] instruction over 8 bytes at a time; elsewhere it runs a
    portable table-driven slicing-by-8 (Intel's, as in LevelDB/RocksDB's
    portable path). The choice is made once, by CPUID, when this module
    is initialised; it is not configurable. Both paths return the same
    value for the same bytes. *)

val string : ?init:int32 -> string -> int32
(** [string s] is the CRC-32C of [s]. [init] continues a running
    checksum (default: fresh). *)

val bytes : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [bytes b ~pos ~len] checksums the given slice. *)

val bigslice : ?init:int32 -> Bigslice.t -> pos:int -> len:int -> int32
(** [bigslice b ~pos ~len] checksums a bigarray-backed slice without
    copying it — the fill-time verification path of the block cache. *)

module Internal : sig
  val portable : ?init:int32 -> string -> pos:int -> len:int -> int32
  (** The portable kernel, whatever the CPU; for tests that compare it
      with a reference on hosts where {!string} takes the hardware path. *)
end

val mask : int32 -> int32
(** [mask crc] applies the standard rotation+offset masking (as in
    LevelDB/RocksDB) so that checksums of data containing embedded CRCs
    remain well-distributed. *)

val unmask : int32 -> int32
(** Inverse of {!mask}. *)
