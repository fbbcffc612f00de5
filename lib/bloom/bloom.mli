(** Bloom filter over string keys.

    Standard m-bit filter with [k] probes derived from one 128-bit hash
    by double hashing. Thread-safety: construction (adds) must be
    externally synchronized; queries after construction are safe from
    any domain (the bit array is no longer mutated). *)

type t

val create : ?bits_per_key:int -> int -> t
(** [create ~bits_per_key n] sizes the filter for [n] expected keys
    (default 10 bits/key, ~1% false-positive rate); the probe count is
    derived as [ln 2 * bits_per_key], clamped to [\[1, 30\]]. *)

type hash
(** A key's hash, from which all [k] probe positions derive. Compute it
    once to query several filters for the same key. *)

val hash : string -> hash
(** 64-bit FNV-1a of the key plus a remix of it as the second hash of
    the double-hashing probe sequence. Part of the serialized format:
    a filter built by one version is queried by the next. *)

val add_hash : t -> hash -> unit
(** [add_hash t (hash key)] sets the [k] bits of [key]. *)

val mem_hash : t -> hash -> bool
(** [mem_hash t (hash key)] tests the [k] bits of [key], stopping at the
    first clear one. [false] proves [key] was never added. *)

val add : t -> string -> unit
(** [add t key] is [add_hash t (hash key)]. *)

val mem : t -> string -> bool
(** [mem t key] is [mem_hash t (hash key)]. *)

val bit_count : t -> int

val fill_ratio : t -> float
(** Fraction of set bits (diagnostic). *)

val serialize : t -> string
val deserialize : string -> t
(** Raises [Invalid_argument] on malformed input. *)
