(** Group commit: coalesce concurrent sync puts' log appends into
    shared fsyncs.

    Protocol: after its log append, a sync put joins the forming batch;
    the first member with no active leader becomes leader and publishes
    a target size (previous batch size or the in-flight writer count at
    promotion, whichever is larger, capped at [max_batch]). The joiner
    that fills the target seals and commits the batch on the spot, so
    in steady state the batch closes the instant the cohort is in. For
    writers that stall before joining, the leader waits no longer than
    one fsync currently takes (a running mean of [commit.fsync]): a
    wait [w] that saves an fsync of cost [f] pays only while [w < f],
    and capping it at [f] stays within 2x of the best choice whether
    or not the writer shows up. It never starts a poll sleep that its
    shortest measured sleep says would overrun that budget, so on a
    device whose fsync is cheaper than a sleep it commits at once, as
    it does before the first fsync. A solo writer (target 1) commits
    immediately: it never waits for company that isn't coming.

    A sealed batch's fsyncs — one per distinct funk log it touches —
    are fanned out cooperatively: every blocked member claims a pending
    funk (its own first) and runs that fsync itself, so a batch
    spanning [k] logs issues its [k] fsyncs concurrently and the
    journal merges them into about one device commit. Acks are
    per-funk: a member unblocks as soon as a covering fsync of {e its}
    funk's log succeeds, overlapping its next operation with the rest
    of the batch. An ack therefore always means a successful covering
    fsync — acked <=> durable at every batch boundary — and an fsync
    failure propagates to exactly the members whose appends that fsync
    was covering. [max_batch = 1] degenerates to per-op fsync,
    serialized per committer.

    Park or fsync: a batch member parks until a covering fsync
    completes, and waking it costs time too. The committer keeps a
    running mean of that wake-up latency next to the fsync's; while an
    fsync costs less than a wake-up (an in-memory device), a sync put
    fsyncs its own log directly instead of joining a batch, and counts
    as a one-member batch. Before the first wake-up is measured, and on
    devices whose fsync costs more than a wake-up, the protocol above
    runs unchanged. *)

type t

val create : max_batch:int -> Evendb_obs.Obs.t -> t
(** Registers [commit.batches], [commit.fsyncs], [commit.fsyncs_saved],
    [commit.direct_fsyncs] (fsyncs run without joining a batch)
    counters and the [commit.batch_size] (members per batch),
    [commit.fsync] (per-fsync latency) and [commit.reform] (gap between
    one batch finishing and the next sealing) timers in the registry. *)

val track : t -> (unit -> 'a) -> 'a
(** Run a mutation counted as in flight for batch-target sizing. The
    write path brackets each sync put/delete with [track] so a newly
    promoted leader knows how many writers are mid-append and sizes the
    batch target to the cohort actually underway. *)

val sync : t -> Funk.t -> unit
(** Make the calling put's (already appended) log record durable,
    sharing the fsync with any concurrent batch members. Blocks until a
    covering fsync of [funk]'s log succeeded; raises that fsync's error
    (e.g. {!Evendb_storage.Env.Io_error}) if it failed. Waits are
    charged to the [Commit_wait] attribution cause; fsyncs run by this
    member (its own or ones it helped with) to [Fsync]. *)
