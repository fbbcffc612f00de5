(** Per-domain shards of a mutable cell.

    One instrument that every op writes (a latency timer, attribution
    totals, a top-K sketch) becomes a fixed array of shards, each under
    its own lock. A writer updates the shard its domain id picks, so
    concurrent writer domains do not serialize on one lock; a reader
    folds over every shard. Shards are made on first write. Two domains
    that pick the same shard share its lock, which costs contention but
    never correctness. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** Shards whose cells [make ()] builds on first write. *)

val update : 'a t -> ('a -> 'b -> unit) -> 'b -> unit
(** [update t f x] runs [f cell x] on the calling domain's shard, under
    that shard's lock. *)

val fold : 'a t -> ('acc -> 'a -> 'acc) -> 'acc -> 'acc
(** Fold over the shards made so far, each under its own lock in turn:
    the result is the sum of per-shard snapshots, not one atomic cut. *)

val iter : 'a t -> ('a -> unit) -> unit
