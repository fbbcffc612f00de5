(** LFU-with-decay admission/eviction policy for the munk cache (§4).

    "The munk cache applies an LFU eviction policy. We use exponential
    decay to maintain the recent access counts: periodically, all
    counters are sliced by a factor of two."

    The policy keeps the cached set of chunks and decides, on each
    access to an uncached chunk, whether it has become hot enough to
    displace the coldest cached munk. The access counts themselves live
    on the chunks ({!Chunk.freq}); the policy bumps them and owns the
    one decay clock. Thread-safe. *)

type t

type decision =
  | Already_cached
  | Admit of Chunk.t option
      (** Cache this chunk; evict the munk of the given chunk first
          (None while the cache has spare capacity). *)
  | Evict_other of Chunk.t
      (** The accessed chunk stays cached, but the cache is over
          capacity (post-split inheritance): evict the given chunk. *)
  | Skip  (** Not hot enough to displace anything. *)

val create : capacity:int -> ?decay_every:int -> unit -> t
(** [capacity] is the maximum number of cached munks; every
    [decay_every] (default 10_000) accesses, all counts halve. *)

val on_access : t -> Chunk.t -> decision
(** Bump the chunk's frequency and decide. When [Admit] is returned
    the chunk is recorded as cached and the evictee (if any) as
    uncached — the caller performs the actual munk load/drop. *)

val is_cached : t -> Chunk.t -> bool

val force_insert : t -> Chunk.t -> Chunk.t option
(** Unconditionally mark a chunk cached (initial load, merges),
    returning a chunk to evict if over capacity. *)

val remove : t -> Chunk.t -> unit
(** Forget a retired chunk: uncache it and zero its frequency. *)

val transfer : t -> Chunk.t -> into:Chunk.t list -> unit
(** Split and merge support: the replacement chunks take the retired
    chunk's cached status, and the retired chunk is {!remove}d. They
    carry its frequency already ({!Chunk.create_inheriting}). May
    exceed capacity transiently; the next [on_access] rebalances. *)

val cached : t -> Chunk.t list

val frequency : t -> Chunk.t -> int
(** The chunk's access count, decayed to the current epoch. *)

val drop_cached : t -> Chunk.t -> unit
(** Mark a chunk as no longer cached but keep its frequency (explicit
    munk eviction). *)

(** {2 Statistics}

    A hit is an [on_access] to an already-cached chunk, a miss one to
    an uncached chunk (whether or not it is then admitted). Evictions
    count every removal decided by the policy ([Admit (Some _)],
    [Evict_other], over-capacity [force_insert]). *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
