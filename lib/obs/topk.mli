(** Space-Saving top-K frequency sketch over a key stream.

    Tracks the heaviest hitters of an unbounded stream in O(capacity)
    memory with deterministic error bounds: after [N] observations into
    a sketch of capacity [m], every key with true frequency greater
    than [N/m] is present, and each reported count interval
    [(count_lo, count_hi)] brackets the key's true frequency with
    [count_hi - count_lo <= N/m].

    Used to watch the hot key-prefix distribution live on the engine
    read/write paths — the spatial-locality skew EvenDB bets on.
    Thread-safe; [observe] is O(1) for monitored keys. Each writer
    domain feeds its own shard's sketch (see {!Per_domain}), so
    concurrent writers take no common lock; {!entries} merges the
    shards, and a sketch fed by one domain reads exactly as a single
    Space-Saving sketch. *)

type t

val create : ?capacity:int -> unit -> t
(** Sketch monitoring at most [capacity] (default 64) distinct keys. *)

val capacity : t -> int

val observe : ?weight:int -> t -> string -> unit
(** Feed one occurrence ([weight] occurrences) of [key] into the
    sketch. Non-positive weights are ignored. *)

val entries : t -> (string * int * int) list
(** Monitored keys as [(key, count_lo, count_hi)], sorted by
    [count_hi] descending (ties by key). [count_hi] is the sketch's
    estimate (never under the true frequency for monitored keys);
    [count_lo = count_hi - err] subtracts the recorded worst-case
    overestimation, so the true frequency lies in
    [\[count_lo, count_hi\]]. *)

val total : t -> int
(** Observations fed so far (sum of weights) — the [N] in the error
    bound [N/capacity]. *)

val reset : t -> unit
