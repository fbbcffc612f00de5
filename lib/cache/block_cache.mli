(** Shared, capacity-bounded cache of checksummed sstable blocks.

    One instance sits between {!Env} and the sstable readers of every
    engine, chunk, and shard sharing that environment, so all block
    reads draw from a single byte budget. Keys are
    [(space, file, index)]: [space] is a unique id per environment
    namespace (shards on prefixed sub-namespaces reuse file names), and
    [index] the block's position in the file's block index.

    CRC verification happens exactly once, inside the fill closure; a
    hit returns the cached slice without copying or re-verifying.
    Eviction is LFU-with-decay per shard, like the munk cache's: every
    4096 accesses to a shard halve its frequencies, and the victim is
    the entry with the lowest frequency, the least recently used of
    those on a tie. A hit and an eviction each cost O(1): a shard keeps
    its entries in per-frequency lists, oldest access first. Total
    resident bytes never exceed the configured capacity. *)

type t

val create : ?shards:int -> capacity_bytes:int -> unit -> t

val capacity_bytes : t -> int

val find_or_fill :
  t ->
  space:int ->
  file:string ->
  index:int ->
  fill:(unit -> Evendb_util.Bigslice.t) ->
  Evendb_util.Bigslice.t
(** Return the cached block, or run [fill] (outside any cache lock),
    insert the result, and return it. Exceptions from [fill]
    (corruption, I/O errors) propagate and cache nothing. A block
    larger than a shard's budget is served but never cached, keeping
    the bound strict. *)

val invalidate_file : t -> space:int -> file:string -> unit
(** Drop every cached block of the named file — called when the file is
    deleted, renamed, or created over. A shard that holds no block of
    the file is skipped after one lookup. *)

val invalidate_space : t -> space:int -> unit
(** Drop every cached block of one environment's namespace (crash
    simulation). *)

val clear : t -> unit

val resident_bytes : t -> int
val hits : t -> int
val misses : t -> int
val fills : t -> int
val evictions : t -> int

(** For tests that check the policy against a model. *)
module Internal : sig
  val shard : t -> space:int -> file:string -> index:int -> int
  (** The index of the shard that holds the block. *)

  val eviction_order : t -> (int * string * int) list array
  (** Per shard, its resident [(space, file, index)] keys in the order
      the shard would evict them, next victim first. *)
end
