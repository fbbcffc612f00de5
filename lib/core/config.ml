type persistence = Async | Sync

type t = {
  max_chunk_bytes : int;
  munk_rebalance_bytes : int;
  munk_rebalance_appended : int;
  funk_log_limit_no_munk : int;
  funk_log_limit_with_munk : int;
  bloom_split_factor : int;
  bloom_bits_per_key : int;
  munk_cache_capacity : int;
  row_cache_capacity_per_table : int;
  persistence : persistence;
  checkpoint_every_puts : int;
  sstable_block_bytes : int;
  collect_read_stats : bool;
  background_maintenance : bool;
  topk_capacity : int;
  attr_enabled : bool;
  group_commit_max_batch : int;
  block_cache_bytes : int;
  snapshot_max_retained : int;
  repl_window : int;
  repl_retry_backoff_ns : int;
}

let mib = 1024 * 1024

let default =
  {
    max_chunk_bytes = 10 * mib;
    munk_rebalance_bytes = 7 * mib;
    munk_rebalance_appended = 8192;
    funk_log_limit_no_munk = 2 * mib;
    funk_log_limit_with_munk = 20 * mib;
    bloom_split_factor = 16;
    bloom_bits_per_key = 10;
    munk_cache_capacity = 64;
    row_cache_capacity_per_table = 4096;
    persistence = Async;
    checkpoint_every_puts = 32768;
    sstable_block_bytes = 4096;
    collect_read_stats = false;
    background_maintenance = false;
    topk_capacity = 512;
    attr_enabled = true;
    group_commit_max_batch = 64;
    block_cache_bytes = 32 * mib;
    snapshot_max_retained = 0;
    repl_window = 64;
    repl_retry_backoff_ns = 1_000_000;
  }

(* Reject knob combinations that would silently misbehave — a munk
   cache of 0 holds nothing, a batch of 0 would deadlock the committer.
   Raised before any file is touched, so a bad config can't half-open a
   store. *)
let validate t =
  let fail fmt = Printf.ksprintf invalid_arg ("Config.validate: " ^^ fmt) in
  if t.max_chunk_bytes <= 0 then fail "max_chunk_bytes = %d (must be positive)" t.max_chunk_bytes;
  if t.munk_cache_capacity < 1 then
    fail "munk_cache_capacity = %d (must be >= 1)" t.munk_cache_capacity;
  if t.group_commit_max_batch < 1 then
    fail "group_commit_max_batch = %d (must be >= 1; 1 = per-op fsync)" t.group_commit_max_batch;
  if t.checkpoint_every_puts < 0 then
    fail "checkpoint_every_puts = %d (must be >= 0; 0 = explicit only)" t.checkpoint_every_puts;
  if t.block_cache_bytes < 0 then
    fail "block_cache_bytes = %d (must be >= 0; 0 = no block cache)" t.block_cache_bytes;
  if t.snapshot_max_retained < 0 then
    fail "snapshot_max_retained = %d (must be >= 0; 0 = unlimited)" t.snapshot_max_retained;
  if t.repl_window < 1 then
    fail "repl_window = %d (must be >= 1; 1 = one record in flight)" t.repl_window;
  if t.repl_retry_backoff_ns < 0 then
    fail "repl_retry_backoff_ns = %d (must be >= 0; 0 = immediate retry)" t.repl_retry_backoff_ns

let scaled ?(factor = 64) () =
  if factor <= 0 then invalid_arg "Config.scaled: factor <= 0";
  {
    default with
    max_chunk_bytes = max 4096 (default.max_chunk_bytes / factor);
    munk_rebalance_bytes = max 2048 (default.munk_rebalance_bytes / factor);
    munk_rebalance_appended = max 256 (default.munk_rebalance_appended / factor);
    funk_log_limit_no_munk = max 1024 (default.funk_log_limit_no_munk / factor);
    funk_log_limit_with_munk = max 8192 (default.funk_log_limit_with_munk / factor);
  }
