(** LFU-with-decay admission/eviction policy for the munk cache (§4).

    "The munk cache applies an LFU eviction policy. We use exponential
    decay to maintain the recent access counts: periodically, all
    counters are sliced by a factor of two."

    The policy keeps the cached set of chunks and decides, on each
    access to an uncached chunk, whether it has become hot enough to
    displace the coldest cached munks: twice as hot as each, so that
    chunks about as warm as each other do not take turns. The cache is
    bounded in bytes, as the paper sizes munk DRAM: each cached chunk
    is charged a weight, and the weights sum to the resident bytes.
    Admission fills the cache up to its [budget]; munks re-weighed in
    place (a rebalance, split or merge) may carry it up to
    [budget + slack] before anything is drained, so a munk that grows a
    little is not evicted and then loaded again. The access counts
    themselves live
    on the chunks ({!Chunk.freq}); the policy bumps them and owns the
    one decay clock. Thread-safe. *)

type t

type decision =
  | Already_cached
  | Admit of Chunk.t list
      (** Cache this chunk; evict the munks of the given chunks first
          (none while the cache has spare bytes). *)
  | Evict_other of Chunk.t list
      (** The accessed chunk stays cached, but re-weighed munks have
          carried the cache past [budget + slack]: evict the given
          chunks. *)
  | Skip  (** Not hot enough to displace anything. *)

val create : budget:int -> slack:int -> ?decay_every:int -> unit -> t
(** [budget] is the resident bytes admission fills the cache to, and
    [budget + slack] the most it holds before draining; every
    [decay_every] (default 10_000) accesses, all counts halve. *)

val on_access : t -> Chunk.t -> weight:int -> decision
(** Bump the chunk's frequency and decide. [weight] estimates the
    bytes of the chunk's munk were it loaded; a hit ignores it. An
    uncached chunk colder than the coldest cached munk is skipped.
    Otherwise it is admitted if [weight] fits in the budget's spare
    bytes, or if evicting munks less than half as hot as it, coldest
    first, makes room for it. When [Admit] is returned the chunk is
    recorded as cached at [weight] and the evictees as uncached — the
    caller performs the actual munk load/drop and then charges the
    loaded munk with {!set_weight}. *)

val is_cached : t -> Chunk.t -> bool

val set_weight : t -> Chunk.t -> int -> unit
(** Re-charge a cached chunk (its munk was loaded or rebuilt); no-op
    for an uncached one. Never evicts: see {!overflow}. *)

val force_insert : t -> Chunk.t -> weight:int -> Chunk.t list
(** Unconditionally mark a chunk cached at [weight] (initial load,
    merges), returning the chunks to evict to bring the cache back
    within [budget + slack]. *)

val overflow : t -> Chunk.t list
(** The coldest chunks to evict (now recorded as uncached) to bring the
    cache back within [budget + slack]; empty when it is. *)

val remove : t -> Chunk.t -> unit
(** Forget a retired chunk: uncache it and zero its frequency. *)

val transfer : t -> Chunk.t -> into:(Chunk.t * int) list -> unit
(** Split support: the replacement chunks take the retired chunk's
    cached status, each at the given weight, and the retired chunk is
    {!remove}d. They carry its frequency already
    ({!Chunk.create_inheriting}). May exceed [budget + slack]
    transiently; {!overflow} or the next [on_access] drains it. *)

val cached : t -> Chunk.t list

val resident_bytes : t -> int
(** The sum of the cached chunks' weights. *)

val budget : t -> int

val frequency : t -> Chunk.t -> int
(** The chunk's access count, decayed to the current epoch. *)

val drop_cached : t -> Chunk.t -> unit
(** Mark a chunk as no longer cached but keep its frequency (explicit
    munk eviction). *)

(** {2 Statistics}

    A hit is an [on_access] to an already-cached chunk, a miss one to
    an uncached chunk (whether or not it is then admitted). Evictions
    count every removal decided by the policy ([Admit] victims,
    [Evict_other], [force_insert], [overflow]). *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
