(** EvenDB configuration.

    Defaults correspond to the paper's setup (§5.1), scaled so that the
    defaults are sensible for test-sized datasets; the benchmark
    harness overrides sizes explicitly per experiment. *)

type persistence =
  | Async  (** fsync in the background/checkpoints only (default). *)
  | Sync  (** fsync every put before returning. *)

type t = {
  max_chunk_bytes : int;
      (** Split trigger: a munk whose compacted size exceeds this is
          split (paper: 10MB). *)
  munk_rebalance_bytes : int;
      (** Munk rebalance trigger on raw (uncompacted) size for a munk
          built at or below it (paper: 7MB); a munk built above it
          rebalances, and splits, once it passes [max_chunk_bytes]. *)
  munk_rebalance_appended : int;
      (** Munk rebalance trigger on the unsorted-region length, which
          keeps bypass paths short independently of byte size. *)
  funk_log_limit_no_munk : int;
      (** Funk rebalance trigger for munk-less chunks (paper: 2MB). *)
  funk_log_limit_with_munk : int;
      (** Funk rebalance trigger for chunks with munks (paper: 20MB) —
          high, so compaction happens almost exclusively in memory. *)
  bloom_split_factor : int;  (** Log bloom partitions (paper: 16). *)
  bloom_bits_per_key : int;
  munk_cache_capacity : int;  (** Max resident munks (LFU w/ decay). *)
  row_cache_capacity_per_table : int;
  persistence : persistence;
  checkpoint_every_puts : int;
      (** Take a checkpoint after this many puts (0 = only explicit
          {!Db.checkpoint} calls). Async mode only. *)
  sstable_block_bytes : int;
  collect_read_stats : bool;
      (** Record the per-component get-latency breakdown (Figure 9);
          small overhead on the read path. *)
  background_maintenance : bool;
      (** Run rebalances/splits on a dedicated maintenance domain (the
          paper's background threads) instead of inline on the put
          path. Default [false]: deterministic, good for tests. *)
  topk_capacity : int;
      (** Monitored-key capacity of the hot-prefix Space-Saving sketch
          (default 512); the sketch's error bound is [N/capacity] after
          [N] observations. *)
  attr_enabled : bool;
      (** Per-op tail-latency cause attribution ({!Evendb_obs.Attr}).
          Default [true]; the overhead is a few clock reads per op. *)
  group_commit_max_batch : int;
      (** Max sync puts coalesced into one fsync by the group committer
          (default 64). [1] degenerates to one fsync per put — exactly
          the pre-group-commit behaviour. Sync mode only. There is no
          wait knob: a commit leader waits for a forming batch to fill
          for at most one fsync's measured duration (the fsync the wait
          would save), so on a fast device it commits at once and on a
          slow one batches still span the writer cohort. *)
  block_cache_bytes : int;
      (** Capacity of the shared sstable block cache installed on the
          store's environment (default 32MiB; 0 disables it and reads
          take the historical uncached path). Shards opened over one
          parent environment share a single budget. *)
  snapshot_max_retained : int;
      (** Retention cap enforced after {!Db.snapshot} publishes: when
          more than this many snapshots exist, the oldest (lowest
          version) are dropped (default 0 = unlimited). *)
  repl_window : int;
      (** Replication shipping window: max change-stream records the
          shipper hands the follower between watermark syncs
          (default 64). *)
  repl_retry_backoff_ns : int;
      (** Pause before retrying a failed change-stream send
          (default 1ms; 0 = immediate retry). *)
}

val default : t

val validate : t -> unit
(** Reject nonsensical knob values with [Invalid_argument] — e.g. a
    group-commit batch below 1, a negative snapshot retention cap or
    an empty munk cache. Called by {!Db.open_} before touching
    storage. *)

val scaled : ?factor:int -> unit -> t
(** [scaled ~factor ()] divides all size thresholds by [factor]
    (default 64) for laptop-scale experiments, preserving the paper's
    ratios (chunk : rebalance : log-limits = 10 : 7 : 2 / 20). *)
