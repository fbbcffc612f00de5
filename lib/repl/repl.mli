(** Replication change-stream, follower mode and failover.

    The primary taps {!Evendb_core.Db.set_commit_hook}: each acked
    put/delete — under Sync persistence, after the group-commit fsync
    covering it — enters the {!Source} stream with a dense LSN, so the
    stream never carries unacked data. A {!Follower} applies records
    into a standby Sync store and persists a monotonic applied-LSN
    watermark after each durable apply; {!Ship} pumps the stream across
    a fault-injectable {!Link} with a bounded window and retry/backoff.
    {!promote} fences the old primary and tops the replica up from its
    recovered durable state, so failover loses nothing acked.

    Invariant: acked ⟺ replicated-or-recoverable. Every write acked by
    the primary is either already applied on the replica, or durable in
    the primary's funk logs and still pending in the stream at or after
    the replica's watermark — never in neither place. *)

open Evendb_storage
open Evendb_core

type record = {
  lsn : int;  (** Dense, 1-based stream position. *)
  key : string;
  value : string option;  (** [None] = delete. *)
  version : int;
  counter : int;
}

exception Stream_fault
(** An injected (or, in {!Ship.deliver}, a retries-exhausted) stream
    transport failure. *)

module Source : sig
  type t

  val create : unit -> t

  val attach : t -> Db.t -> unit
  (** Install the commit-hook tap on the primary. *)

  val detach : Db.t -> unit
  val publish : t -> Evendb_util.Kv_iter.entry -> unit
  (** The tap itself: assigns the next LSN, dropping entries already
      superseded by a newer emitted record for the same key. *)

  val head_lsn : t -> int
  val from : t -> after:int -> max:int -> record list
  (** Records with [after < lsn <= after + max], stream order. *)
end

module Follower : sig
  type t

  val open_ : ?config:Config.t -> Env.t -> t
  (** Open (or create, or recover) the standby store; persistence is
      forced to [Sync] so an applied record is durable before the
      watermark covers it. Writes the {!Evendb_core.Layout.follower_file} marker. *)

  val db : t -> Db.t
  val applied_lsn : t -> int

  val apply : t -> record -> unit
  (** Apply one record; no-op at or below the watermark (idempotent
      redelivery). The watermark advances only after the durable
      apply. *)

  val close : t -> unit
  val load_watermark : Env.t -> int
  (** 0 when the file is absent; raises [Env.Corruption] if damaged. *)
end

module Link : sig
  type t

  val create : ?fault_seed:int -> ?fault_rate_ppm:int -> unit -> t
  (** A deterministic fault plan: each send fails with probability
      [fault_rate_ppm] / 1e6 drawn from a generator seeded with
      [fault_seed] (no faults without a seed). *)

  val send : t -> (unit -> 'a) -> 'a
  (** Raises {!Stream_fault} on an injected failure (before delivery —
      the receiver observes nothing). *)

  val sends : t -> int
  val failures : t -> int
end

module Ship : sig
  type t

  val create : ?config:Config.t -> Source.t -> Follower.t -> Link.t -> t
  (** Window and backoff come from [config]'s [repl_window] /
      [repl_retry_backoff_ns]; counters ([repl.records_shipped],
      [repl.retries]) and gauges ([repl.lag_records]) register on the
      follower store's metrics registry. *)

  val pump : t -> unit
  (** Drain the stream until the follower catches up with the source
      head, at most [repl_window] records per batch, retrying each
      failed send with backoff (raises {!Stream_fault} only after 1000
      consecutive failures on one record). *)

  val lag : t -> int
end

val promote : ?primary:Db.t -> Follower.t -> Db.t
(** Promote the replica: when the old primary's store is reachable,
    fence it (durable [FENCED] marker — all subsequent writes there
    raise [Db.Fenced]) and apply a full differential of its recovered
    durable state onto the replica, so the promoted store equals the
    deposed primary's acked state. Removes the follower marker and
    watermark, checkpoints, bumps [repl.failovers], and returns the
    now-writable store. *)
