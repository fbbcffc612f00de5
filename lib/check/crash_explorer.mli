(** Exhaustive crash-point exploration.

    Runs a deterministic mixed workload against an engine on a
    journaled in-memory backend ({!Backend.journaled_memory}), then for
    {e every} prefix of the mutation journal reconstructs the
    filesystem as if power had failed right there
    ({!Backend.replay_prefix}), recovers, and checks the persistence
    contract:

    - every write that was acked {e and} covered by a durability
      barrier (sync-mode ack, or an explicit checkpoint in async mode)
      is present;
    - no key serves a value older than its durability bound or newer
      than anything attempted — in particular an acked-and-synced
      delete never resurrects;
    - scans return sorted, duplicate-free results obeying the same
      per-key bounds;
    - the recovered store accepts and serves new writes;
    - the recovered directory passes {!Scrub} with no errors (log
      garbage is tolerated only where the crash mode can tear records).

    Two crash models are explored: [Drop_unsynced] (each file keeps
    exactly its synced prefix) and [Reorder_unsynced] (each file
    independently keeps a seeded random slice of its unsynced suffix —
    a disk that reorders writes across files). *)

open Evendb_storage

(** A key-value engine under exploration. *)
module type ENGINE = sig
  type t

  val name : string
  val open_ : Env.t -> t
  val close : t -> unit
  val put : t -> string -> string -> unit
  val delete : t -> string -> unit
  val get : t -> string -> string option
  val scan : t -> low:string -> high:string -> (string * string) list

  val barrier : t -> unit
  (** Make everything acked so far durable (checkpoint / fsync). *)

  val durable_on_ack : bool
  (** [true] when an acked write is already durable (sync modes);
      [false] when durability waits for the next {!barrier}. *)
end

val evendb_sync : (module ENGINE with type t = Evendb_core.Db.t)
val evendb_async : (module ENGINE with type t = Evendb_core.Db.t)
(** EvenDB with test-scaled thresholds, in both persistence modes. The
    store type is exposed so a caller can inspect the explored store
    (its splits, say). *)

val lsm_sync : (module ENGINE)
val flsm_sync : (module ENGINE)

type result = {
  engine : string;
  mode : Backend.crash_mode;
  ops_run : int;  (** workload operations executed *)
  crash_points : int;  (** journal prefixes explored (ops_journal + 1) *)
  violations : (int * string) list;
      (** (crash point, description); empty = contract holds *)
}

val explore :
  (module ENGINE) ->
  ?ops:int ->
  ?keys:int ->
  ?barrier_every:int ->
  ?seed:int ->
  ?scrub:bool ->
  mode:Backend.crash_mode ->
  unit ->
  result
(** Run the workload ([ops] operations over [keys] keys, ~70% put /
    20% delete / 10% scan, an explicit {!ENGINE.barrier} every
    [barrier_every] ops) and explore every crash point. Defaults:
    200 ops, 24 keys, barrier every 40 ops, seed 1, scrub on.
    Violations abort nothing — the full list comes back for reporting. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Pair exploration}

    A Sync primary replicating to a follower over a fault-injected
    link, with {e either} node crashed at {e every} point of its
    mutation journal ([Drop_unsynced] model):

    - primary crash at [p], replica frozen at its last shipped state:
      recover both, {!Evendb_repl.Repl.promote} — the promoted store
      must satisfy the single-node durability oracle at [p] (failover
      loses nothing acked), the fenced old primary must refuse writes,
      and the promoted directory must scrub clean;
    - replica crash at [r]: the recovered replica must serve only data
      the primary had acked (nothing unacked ever leaks into the
      change-stream), and resuming shipment from the watermark across a
      fresh faulty link must converge to the primary's final state
      (monotonic watermark, idempotent redelivery). *)

type pair_result = {
  pair_seed : int;
  pair_ops : int;
  primary_points : int;  (** primary journal prefixes explored *)
  replica_points : int;  (** replica journal prefixes explored *)
  pair_violations : (string * string) list;
      (** (["primary@p"] or ["replica@r"], description) *)
}

val explore_pair :
  ?ops:int -> ?keys:int -> ?seed:int -> ?fault_rate_ppm:int -> unit -> pair_result
(** Defaults: 60 ops (80% put / 20% delete) over 24 keys, seed 1, link
    fault rate 120000 ppm. *)

val pp_pair_result : Format.formatter -> pair_result -> unit
