open Evendb_util
open Evendb_storage
open Evendb_bloom
open Evendb_cache
open Evendb_munk
open Evendb_sstable
open Evendb_log
open Evendb_obs

module K = Kv_iter

(* Background maintenance (the paper's dedicated threads): puts enqueue
   chunks whose thresholds tripped; a maintainer domain drains the
   queue. *)
type maintainer = {
  m_mutex : Mutex.t;
  m_cond : Condition.t;
  m_queue : (int, Chunk.t) Hashtbl.t; (* dedup by chunk id *)
  mutable m_stop : bool;
  mutable m_domain : unit Domain.t option;
}

(* Fixed sizing of the auxiliary structures; no workload has needed
   to tune them. *)
let po_slots = 128 (* pending-op slots: far above any writer-domain count *)
let row_cache_tables = 3 (* the paper's three row-cache hash tables *)
let hot_prefix_len = 8 (* "user" + 4 digits under the YCSB keys: 10^6-key blocks *)

type t = {
  env : Env.t;
  cfg : Config.t;
  head : Chunk.t Atomic.t;
  index : Chunk_index.t Atomic.t;
  gv : int Atomic.t; (* packed current version; puts read, scans F&I *)
  po : Pending_ops.t;
  row_cache : Row_cache.t;
  lfu : Lfu.t;
  rt : Recovery_table.t;
  epoch : int;
  last_checkpoint : int Atomic.t; (* packed; -1 before the first *)
  next_funk_id : int Atomic.t;
  next_chunk_id : int Atomic.t;
  live_funks : (int, Funk.t) Hashtbl.t; (* the manifest's set; guarded by [structural] *)
  structural : Mutex.t; (* chunk list, index, manifest; leaf lock *)
  checkpoint_mutex : Mutex.t;
  rstats : Read_stats.t;
  topk : Topk.t; (* hot key prefixes, fed from gets and puts *)
  logical_written : int Atomic.t;
  put_count : int Atomic.t;
  closed : bool Atomic.t;
  fenced : bool Atomic.t; (* failover: a fenced primary rejects writes *)
  commit_hook : (K.entry -> unit) option Atomic.t;
      (* called once per put/delete after the entry is acked (and, under
         Sync, durable) — the replication change-stream's tap *)
  maint : maintainer option;
  committer : Group_commit.t option; (* Some iff persistence = Sync *)
  (* Observability: one registry per instance; handles cached here so
     the hot paths bump without a hashtable lookup. *)
  obs : Obs.t;
  attr : Attr.t; (* per-op tail-latency cause attribution *)
  tm_put : Obs.Timer.t;
  tm_get : Obs.Timer.t;
  tm_delete : Obs.Timer.t;
  tm_scan : Obs.Timer.t;
  ctr_log_appends : Obs.Counter.t;
  ctr_funk_flushes : Obs.Counter.t;
  ctr_funk_merges : Obs.Counter.t;
  ctr_io_errors : Obs.Counter.t; (* maintenance/checkpoint I/O failures absorbed *)
  ctr_maint_failures : Obs.Counter.t; (* unexpected maintainer-domain exceptions *)
  opened_at_ns : int;
}

exception Fenced

let env t = t.env
let config t = t.cfg
let obs t = t.obs
let attr t = t.attr

let metrics_dump t = function
  | `Json -> Obs.to_json t.obs
  | `Prometheus -> Obs.to_prometheus t.obs
let current_version t = Atomic.get t.gv
let current_epoch t = t.epoch
let logical_bytes_written t = Atomic.get t.logical_written
let read_stats t = Read_stats.summarize t.rstats

let visible db version = Recovery_table.is_visible db.rt ~current_epoch:db.epoch version

(* Persistence floor: versions at or below it must survive every
   compaction, or a crash could recover to a non-prefix state (§3.5). *)
let persist_floor db =
  match db.cfg.persistence with
  | Config.Sync -> Atomic.get db.gv
  | Config.Async -> Atomic.get db.last_checkpoint

let fresh_funk_id db = Atomic.fetch_and_add db.next_funk_id 1
let fresh_chunk_id db = Atomic.fetch_and_add db.next_chunk_id 1

let chunk_range c = (Chunk.min_key c, Option.map Chunk.min_key (Chunk.next c))

(* Versions a compaction of chunk [c] must retain: the minimum of
   overlapping scans' snapshots, the current GV, and the persistence
   floor (§3.4 + §3.5). *)
let compaction_floor db c =
  let low, high_excl = chunk_range c in
  let high =
    (* PO scan ranges are inclusive; the chunk upper bound is
       exclusive, which only makes the overlap test conservative. *)
    high_excl
  in
  let gv_now = Atomic.get db.gv in
  let scans = Pending_ops.min_scan_version db.po ~low ~high ~default:gv_now in
  let pf = persist_floor db in
  (* Before the first checkpoint nothing is durable, so there is no
     persistence consumer: recovery comes back empty either way. *)
  if pf < 0 then min scans gv_now else min scans (min gv_now pf)

(* ------------------------------------------------------------------ *)
(* Funk publication                                                    *)

(* A fresh funk (fsynced SSTable, empty log), private until published
   by [swap_funks]; until then recovery sweeps its files as non-live. *)
let build_funk db ~min_key it =
  Funk.create_from_iter db.env ~block_bytes:db.cfg.sstable_block_bytes ~id:(fresh_funk_id db)
    ~min_key it

(* Run [f] on behalf of the unpublished [funks], discarding them if it
   fails. *)
let discarding funks f =
  try f ()
  with exn ->
    List.iter Funk.retire funks;
    raise exn

(* The one funk-publication protocol: build, swap, flip, retire. The
   caller has built [add] privately and holds the exclusive rebalance
   lock of every chunk whose funk is in [replace], so no put can reach
   a replaced funk any more. One manifest store (tmp, fsync, rename:
   atomic) lists [add] and drops [replace]; only once it succeeded is
   the in-memory live set committed, [flip] run (install the funks or
   splice the chunks) and [replace] retired. A crash before the rename
   recovers the old funks, one after it the new ones; each set holds
   all the data. If the store fails nothing has changed: [add] is
   discarded and the error propagates. [flip] must not fail. *)
let swap_funks db ~add ~replace ~flip =
  let added = List.map Funk.id add and dropped = List.map Funk.id replace in
  discarding add (fun () ->
      Mutex.protect db.structural (fun () ->
          let live =
            Hashtbl.fold
              (fun id _ acc -> if List.mem id dropped then acc else id :: acc)
              db.live_funks added
          in
          Manifest.store db.env { next_id = Atomic.get db.next_funk_id; live };
          List.iter (fun f -> Hashtbl.replace db.live_funks (Funk.id f) f) add;
          List.iter (Hashtbl.remove db.live_funks) dropped));
  flip ();
  List.iter Funk.retire replace

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

let walk_forward c key =
  let cur = ref c in
  let continue = ref true in
  while !continue do
    match Chunk.next !cur with
    | Some n when String.compare (Chunk.min_key n) key <= 0 -> cur := n
    | _ -> continue := false
  done;
  !cur

(* Reads may land on a retired chunk via a stale index snapshot; that
   is safe (it is immutable and holds the same content as its
   replacements, §3.4), but its funk may already be deleted, in which
   case [Funk.with_pin] raises [Funk.Stale] and the caller re-resolves
   through the rebuilt index. *)
let lookup_read db key = walk_forward (Chunk_index.find (Atomic.get db.index) key) key

let rec lookup_put db key =
  let c = lookup_read db key in
  if Chunk.retired c then begin
    Domain.cpu_relax ();
    lookup_put db key
  end
  else c

(* ------------------------------------------------------------------ *)
(* Bloom filters of munk-less chunks                                   *)

let build_bloom db funk =
  let bloom =
    Partitioned_bloom.create ~bits_per_key:db.cfg.bloom_bits_per_key
      ~segment_bytes:(max 1024 (db.cfg.funk_log_limit_no_munk / db.cfg.bloom_split_factor))
      ~expected_keys_per_segment:(max 64 (db.cfg.funk_log_limit_no_munk / db.cfg.bloom_split_factor / 64))
      ()
  in
  List.iter
    (fun (off, key) -> Partitioned_bloom.add bloom ~key ~log_offset:off)
    (Funk.log_offsets_for_bloom funk ~visible:(visible db));
  bloom

(* Lazily create the bloom filter of a munk-less chunk (recovery leaves
   them absent). Takes the chunk's rebalance lock exclusively so no put
   can append a record the new filter would miss. *)
let ensure_bloom db c =
  if Chunk.munk c = None && Chunk.bloom_segments c "" = None then begin
    let lock = Chunk.rebalance_lock c in
    if Rwlock.try_lock_exclusive lock then
      Fun.protect
        ~finally:(fun () -> Rwlock.unlock_exclusive lock)
        (fun () ->
          if (not (Chunk.retired c)) && Chunk.munk c = None && Chunk.bloom_segments c "" = None
          then
            Funk.with_pin
              ~current:(fun () -> Chunk.funk c)
              (fun funk -> Chunk.set_bloom c (Some (build_bloom db funk))))
  end

(* ------------------------------------------------------------------ *)
(* Munk loading and eviction (the munk cache)                          *)

let row_cache_purge db c =
  let low, high_excl = chunk_range c in
  (* invalidate_range is inclusive; purging up to (and including) the
     next chunk's min key is harmless. *)
  Row_cache.invalidate_range db.row_cache ~low ~high:high_excl

(* Reads of a funk's full content on behalf of a chunk are clipped to
   the chunk's range. Every funk written by this code holds only its
   chunk's keys; the clip matters only for stores written by earlier
   builds, whose splits shared the parent's funk between the two
   children until each had flushed its own. [hi] bounds the log read
   (see {!Funk.all_entries}). *)
let chunk_entries ?hi db c funk =
  let low, high_excl = chunk_range c in
  K.filter
    (fun (e : K.entry) ->
      String.compare low e.key <= 0
      && match high_excl with None -> true | Some h -> String.compare e.key h < 0)
    (Funk.all_entries ?hi funk ~visible:(visible db))

let load_munk db c =
  let lock = Chunk.rebalance_lock c in
  Rwlock.lock_exclusive lock;
  Fun.protect
    ~finally:(fun () -> Rwlock.unlock_exclusive lock)
    (fun () ->
      if (not (Chunk.retired c)) && Chunk.munk c = None then begin
        Funk.with_pin
          ~current:(fun () -> Chunk.funk c)
          (fun funk ->
            let floor = compaction_floor db c in
            let entries = K.compact ~min_retained_version:floor (chunk_entries db c funk) in
            Chunk.set_munk c (Some (Munk.of_iter entries)));
        Chunk.set_bloom c None;
        row_cache_purge db c;
        true
      end
      else false)

(* Flush the munk into a fresh funk (new SSTable from the compacted
   munk, empty log). Caller holds the chunk's lock exclusively. *)
let flush_munk_locked db c munk =
  Obs.Trace.with_span (Obs.trace db.obs) ~name:"funk_flush" (fun sp ->
      let floor = compaction_floor db c in
      let compacted = Munk.rebalance munk ~min_retained_version:(Some floor) in
      Obs.Trace.add_attr sp "bytes" (Munk.byte_size compacted);
      Obs.Trace.add_attr sp "entries" (Munk.entry_count compacted);
      let funk' = build_funk db ~min_key:(Chunk.min_key c) (Munk.iter compacted) in
      swap_funks db ~add:[ funk' ] ~replace:[ Chunk.funk c ] ~flip:(fun () ->
          Chunk.set_munk c (Some compacted);
          Chunk.set_funk c funk');
      Obs.Counter.incr db.ctr_funk_flushes)

let evict_munk_chunk db c =
  let lock = Chunk.rebalance_lock c in
  Rwlock.lock_exclusive lock;
  Fun.protect
    ~finally:(fun () -> Rwlock.unlock_exclusive lock)
    (fun () ->
      match Chunk.munk c with
      | None -> false
      | Some munk when not (Chunk.retired c) ->
        (* If the log has outgrown the munk-less limit, flush first so
           the now-cold chunk doesn't immediately need a disk merge. *)
        if Funk.log_size (Chunk.funk c) > db.cfg.funk_log_limit_no_munk then
          flush_munk_locked db c munk;
        Chunk.set_munk c None;
        (* Bloom filters are re-created on munk eviction (§2.2): the
           chunk is now cold and its reads shift to the funk. *)
        Funk.with_pin
          ~current:(fun () -> Chunk.funk c)
          (fun funk -> Chunk.set_bloom c (Some (build_bloom db funk)));
        Lfu.drop_cached db.lfu c;
        true
      | Some _ -> false)

(* Carry out an eviction the policy decided. *)
let evict_victim db victim =
  ignore (Attr.timed Attr.Rebalance (fun () -> evict_munk_chunk db victim))

(* Access-driven munk admission, sampled to keep the LFU off the hot
   path. *)
let access_tick = Domain.DLS.new_key (fun () -> ref 0)

let note_access db c =
  let tick = Domain.DLS.get access_tick in
  incr tick;
  if !tick land 7 = 0 then begin
    try
      (match Lfu.on_access db.lfu c with
      | Lfu.Already_cached | Lfu.Skip -> ()
      | Lfu.Evict_other victim -> evict_victim db victim
      | Lfu.Admit evictee ->
        Option.iter (evict_victim db) evictee;
        if not (Attr.timed Attr.Disk_read (fun () -> load_munk db c)) then
          (* Retired or already loaded elsewhere; keep LFU consistent. *)
          if Chunk.munk c = None then Lfu.drop_cached db.lfu c)
    with Env.Corruption _ ->
      (* Admission is an optimisation; a corrupt funk must not take the
         read path down with it. The get itself degrades separately. *)
      ()
  end

(* ------------------------------------------------------------------ *)
(* Get                                                                 *)

let now_ns = Obs.now_ns

let entry_to_value (e : K.entry) = e.value

(* Hot-prefix sketch key: the leading [hot_prefix_len] bytes. *)
let prefix_of key =
  if String.length key <= hot_prefix_len then key else String.sub key 0 hot_prefix_len

let rec get_resolved db key =
  let detailed = db.cfg.collect_read_stats in
  let t0 = if detailed then now_ns () else 0 in
  let c = lookup_read db key in
  let record comp =
    Read_stats.record db.rstats comp (if detailed then now_ns () - t0 else 0);
    Chunk.record_get c comp
  in
  note_access db c;
  match Chunk.munk c with
  | Some munk ->
    let result =
      match Munk.find_latest munk key with
      | Some e -> entry_to_value e
      | None -> None
    in
    record Read_stats.Munk_cache;
    result
  | None -> (
    match Row_cache.find db.row_cache key with
    | Some v ->
      record Read_stats.Row_cache;
      Some v
    | None ->
      (* Munk miss, row-cache miss: the rest of this get is served from
         the funk (bloom build + log probe + SSTable read) — the
         disk-read stall the munk cache exists to avoid. The recursive
         retry under [Stale] stays inside the section (nested [timed]
         is a no-op), so its cost is charged to this op too. *)
      Attr.timed Attr.Disk_read (fun () ->
      ensure_bloom db c;
      try
        Funk.with_pin
          ~current:(fun () -> Chunk.funk c)
          (fun funk ->
          let segments = Chunk.bloom_segments c key in
          match
            Funk.get_from_log funk ?segments ~visible:(visible db) ~max_version:max_int key
          with
          | Some ({ value = Some v; version; counter; _ } : K.entry) ->
            Row_cache.insert db.row_cache key v ~version ~counter;
            record Read_stats.Funk_log;
            Some v
          | Some { value = None; _ } ->
            record Read_stats.Funk_log;
            None
          | None -> (
            match
              try `Sst (Funk.get_from_sst funk ~visible:(visible db) ~max_version:max_int key)
              with Env.Corruption _ as exn ->
                (* Corrupt SSTable block: degrade to a full-log scan (a
                   superset of the bloom segments checked above). A key
                   that only lives in the corrupt table stays
                   unreadable until [fsck --repair], but the process
                   survives and every log-resident key stays served. *)
                `Degraded
                  ( Funk.get_from_log funk ~visible:(visible db) ~max_version:max_int key,
                    exn )
            with
            | `Sst (Some ({ value = Some v; version; counter; _ } : K.entry)) ->
              Row_cache.insert db.row_cache key v ~version ~counter;
              record Read_stats.Sstable;
              Some v
            | `Sst (Some { value = None; _ }) ->
              record Read_stats.Sstable;
              None
            | `Sst None ->
              record Read_stats.Missing;
              None
            | `Degraded (Some ({ value; _ } : K.entry), _) ->
              record Read_stats.Funk_log;
              value
            | `Degraded (None, exn) -> raise exn))
      with Funk.Stale -> get_resolved db key))

let get db key =
  Topk.observe db.topk (prefix_of key);
  Attr.with_op db.attr Attr.Get db.tm_get (fun () -> get_resolved db key)

(* ------------------------------------------------------------------ *)
(* Rebalance and splits                                                *)

let find_predecessor db c =
  let rec walk cur = match Chunk.next cur with
    | Some n when n == c -> Some cur
    | Some n -> walk n
    | None -> None
  in
  let head = Atomic.get db.head in
  if head == c then None else walk head

(* Splice the chain [first .. last] in place of the adjacent chunks
   [old] (in list order) and retire them. Caller holds every old
   chunk's rebalance lock exclusively. *)
let splice_chunks db ~old ~first ~last =
  let old_first = List.hd old in
  let old_last = List.fold_left (fun _ c -> c) old_first old in
  Mutex.protect db.structural (fun () ->
      Chunk.set_next last (Chunk.next old_last);
      (match find_predecessor db old_first with
      | None -> Atomic.set db.head first
      | Some pred -> Chunk.set_next pred (Some first));
      Atomic.set db.index (Chunk_index.of_first_chunk (Atomic.get db.head)));
  List.iter Chunk.retire old

(* Build the two halves' funks, [left] from [min_key] and [right] from
   its first key; if the second build fails the first is discarded. *)
let build_halves db ~min_key left right =
  let funk1 = build_funk db ~min_key (K.of_list left) in
  let mid = (List.hd right : K.entry).key in
  (funk1, discarding [ funk1 ] (fun () -> build_funk db ~min_key:mid (K.of_list right)))

(* The split tail shared by hot and cold splits (§3.4): replace [c] by
   two children over the privately built [funk1] and [funk2]. Each
   child owns its funk from the moment it becomes visible: unlike the
   paper's split, the children never share the parent's funk, whose
   crash window lost the second child's data (see DESIGN.md). A
   munk-less child gets its bloom filter before the swap. Caller holds
   c's rebalance lock exclusively; the retired [c] keeps its munk so
   that readers holding stale references are still served. *)
let split_into db c (funk1, munk1) (funk2, munk2) =
  let counter = Chunk.counter_base c and freq = Chunk.freq c in
  let child funk munk =
    let ch =
      Chunk.create_inheriting ~id:(fresh_chunk_id db) ~min_key:(Funk.min_key funk) ~funk ~munk
        ~counter ~freq
    in
    if munk = None then Chunk.set_bloom ch (Some (build_bloom db funk));
    ch
  in
  let c1, c2 =
    discarding [ funk1; funk2 ] (fun () ->
        let c1 = child funk1 munk1 in
        (c1, child funk2 munk2))
  in
  Chunk.set_next c1 (Some c2);
  swap_funks db ~add:[ funk1; funk2 ] ~replace:[ Chunk.funk c ] ~flip:(fun () ->
      splice_chunks db ~old:[ c ] ~first:c1 ~last:c2);
  Lfu.transfer db.lfu c ~into:[ c1; c2 ];
  List.iter Chunk.record_split [ c1; c2 ]

(* Split a chunk whose compacted munk exceeds the chunk size limit
   (§3.4). Caller holds c's rebalance lock exclusively; [compacted] is
   the freshly rebalanced munk. *)
let split_chunk_locked db c compacted floor =
  match Munk.split_entries compacted ~min_retained_version:(Some floor) with
  | _, [] -> Chunk.set_munk c (Some compacted)
  | left, right ->
    Obs.Trace.with_span (Obs.trace db.obs) ~name:"chunk_split"
      ~attrs:
        [
          ("bytes", Munk.byte_size compacted); ("entries", Munk.entry_count compacted);
        ]
      (fun _sp ->
        let funk1, funk2 = build_halves db ~min_key:(Chunk.min_key c) left right in
        split_into db c
          (funk1, Some (Munk.of_sorted left))
          (funk2, Some (Munk.of_sorted right)))

(* Bypass-chain length grows with the appended/sorted ratio, not the
   appended count alone: every put's [Munk.find_position] walk is
   bounded by the entries appended since the last rebalance that fall
   between two sorted-prefix anchors, so a munk with a small sorted
   prefix (worst case: a fresh one, prefix empty) degrades to an O(n)
   list walk per put long before a fixed threshold fires. Scale the
   trigger with the sorted prefix — expected walk stays ~1/4 entry for
   uniform keys — and cap it at the configured limit so a huge munk
   keeps today's rebalance cadence. *)
let munk_appended_limit db m =
  let sorted = Munk.entry_count m - Munk.appended_count m in
  min db.cfg.munk_rebalance_appended (max 128 (sorted / 4))

(* A munk rebalances when it grows past the next threshold above the
   size it was built at: [munk_rebalance_bytes] if it was built at or
   below that, else [max_chunk_bytes], where the rebalance splits it —
   a rebalance neither shrinks a munk built in between below
   [munk_rebalance_bytes] nor splits it, so firing on its size alone
   would re-sort it on every put. *)
let munk_over_threshold db m =
  let limit =
    if Munk.built_bytes m <= db.cfg.munk_rebalance_bytes then db.cfg.munk_rebalance_bytes
    else db.cfg.max_chunk_bytes
  in
  Munk.byte_size m > limit || Munk.appended_count m > munk_appended_limit db m

(* Munk rebalance: compact in memory; split if over the size limit.
   [force] bypasses the double-checked trigger — explicit maintenance
   compacts below-threshold munks on purpose (tombstone resolution for
   the merge trigger), and must not be treated as a convoy straggler. *)
let munk_rebalance ?(force = false) db c =
  let lock = Chunk.rebalance_lock c in
  Rwlock.lock_exclusive lock;
  Fun.protect
    ~finally:(fun () -> Rwlock.unlock_exclusive lock)
    (fun () ->
      if not (Chunk.retired c) then
        match Chunk.munk c with
        | None -> ()
        | Some munk when (not force) && not (munk_over_threshold db munk) ->
          (* Double-checked: several writers can cross the trigger
             together and queue for the exclusive lock; whoever gets it
             first does the work and installs a compacted munk, so the
             rest must re-read the trigger here or they each re-sort an
             already-clean munk back to back, stalling every writer
             behind a convoy of no-op compactions. *)
          ()
        | Some munk ->
          Obs.Trace.with_span (Obs.trace db.obs) ~name:"munk_rebalance" (fun sp ->
              Chunk.record_rebalance c;
              let floor = compaction_floor db c in
              let compacted = Munk.rebalance munk ~min_retained_version:(Some floor) in
              Obs.Trace.add_attr sp "bytes" (Munk.byte_size compacted);
              Obs.Trace.add_attr sp "entries" (Munk.entry_count compacted);
              if Munk.byte_size compacted > db.cfg.max_chunk_bytes then
                split_chunk_locked db c compacted floor
              else Chunk.set_munk c (Some compacted)))

(* Funk rebalance for a munk-less (cold) chunk: merge SSTable + log
   into a fresh funk — two, splitting the chunk, if the merged content
   exceeds the chunk limit — without blocking puts for the duration of
   the merge; records appended meanwhile are diverted to the new funks'
   logs at flip time (§3.4). *)
let cold_funk_rebalance db c =
  Funk.with_pin
    ~current:(fun () -> Chunk.funk c)
    (fun funk ->
      Obs.Trace.with_span (Obs.trace db.obs) ~name:"cold_funk_rebalance" (fun sp ->
      Chunk.record_rebalance c;
      let log_end = Funk.log_size funk in
      let floor = compaction_floor db c in
      (* Merge only the log below [log_end]: a record appended from here
         on reaches the new funks through the divert below, and merging
         it as well would build it twice. *)
      let merged =
        K.to_list (K.compact ~min_retained_version:floor (chunk_entries ~hi:log_end db c funk))
      in
      Obs.Counter.incr db.ctr_funk_merges;
      Obs.Trace.add_attr sp "entries" (List.length merged);
      let total = List.fold_left (fun acc e -> acc + Munk.entry_bytes e) 0 merged in
      Obs.Trace.add_attr sp "bytes" total;
      let min_key = Chunk.min_key c in
      let left, right =
        if total > db.cfg.max_chunk_bytes then Munk.split_list merged else (merged, [])
      in
      let built =
        match right with
        | [] -> Either.Left (build_funk db ~min_key (K.of_list left))
        | _ -> Either.Right (build_halves db ~min_key left right)
      in
      let funks = match built with Left f -> [ f ] | Right (f1, f2) -> [ f1; f2 ] in
      let target_of key =
        List.fold_left
          (fun acc f -> if String.compare (Funk.min_key f) key <= 0 then f else acc)
          (List.hd funks) funks
      in
      let lock = Chunk.rebalance_lock c in
      Rwlock.lock_exclusive lock;
      Fun.protect
        ~finally:(fun () -> Rwlock.unlock_exclusive lock)
        (fun () ->
          if Chunk.retired c || Chunk.munk c <> None then
            (* Lost a race with a split or a munk load; discard the
               rebuilt funks (they never entered the manifest). *)
            List.iter Funk.retire funks
          else begin
            (* Copy post-merge appends (current-epoch records only) into
               the new funks and make them durable there: after the swap
               they live nowhere else. *)
            discarding funks (fun () ->
                Log_file.Reader.fold ~lo:log_end db.env (Funk.log_name (Funk.id funk)) ~init:()
                  ~f:(fun () _off e -> ignore (Funk.append (target_of e.K.key) e));
                List.iter (fun f -> if Funk.log_size f > 0 then Funk.fsync_log f) funks);
            (* Blooms are built after the divert so they cover it. *)
            match built with
            | Right (funk1, funk2) -> split_into db c (funk1, None) (funk2, None)
            | Left funk' ->
              let bloom = discarding funks (fun () -> build_bloom db funk') in
              swap_funks db ~add:funks ~replace:[ funk ] ~flip:(fun () ->
                  Chunk.set_funk c funk';
                  Chunk.set_bloom c (Some bloom))
          end)))

(* Funk rebalance dispatch: with a munk we flush (in-memory compaction
   + sequential write); without, we merge on disk. One rebuild per funk
   at a time (the paper's funkChangeLock, acquired with try-lock). *)
let funk_rebalance db c =
  let m = Chunk.funk_change_mutex c in
  if Mutex.try_lock m then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        match Chunk.munk c with
        | Some _ ->
          let lock = Chunk.rebalance_lock c in
          Rwlock.lock_exclusive lock;
          Fun.protect
            ~finally:(fun () -> Rwlock.unlock_exclusive lock)
            (fun () ->
              if not (Chunk.retired c) then
                match Chunk.munk c with
                | Some munk ->
                  Chunk.record_rebalance c;
                  flush_munk_locked db c munk
                | None -> ())
        | None -> (
          (* The chunk may be retired by a concurrent split before we
             pin its funk; its replacements then handle their own
             maintenance. *)
          try cold_funk_rebalance db c with Funk.Stale -> ()))

let funk_log_limit db c =
  match Chunk.munk c with
  | Some _ -> db.cfg.funk_log_limit_with_munk
  | None -> db.cfg.funk_log_limit_no_munk

let needs_munk_rebalance db c =
  match Chunk.munk c with
  | Some m -> munk_over_threshold db m
  | None -> false

let needs_funk_rebalance db c = Funk.log_size (Chunk.funk c) > funk_log_limit db c

let maybe_maintain db c =
  if not (Chunk.retired c) then begin
    if needs_munk_rebalance db c then munk_rebalance db c;
    if (not (Chunk.retired c)) && needs_funk_rebalance db c then funk_rebalance db c
  end

(* ------------------------------------------------------------------ *)
(* Merging underflowing chunks                                         *)

(* The paper describes merging as "a similar protocol" to splitting
   and notes its prototype does not implement it (§3.4); we do, so
   delete-heavy workloads do not strand swarms of near-empty chunks. *)

let chunk_weight c =
  match Chunk.munk c with
  | Some m -> Munk.byte_size m
  | None -> Funk.total_bytes (Chunk.funk c)

let needs_merge db c =
  match Chunk.next c with
  | Some n ->
    (not (Chunk.retired c))
    && (not (Chunk.retired n))
    (* Funk sizes over-estimate live data until their next rebalance,
       so cold chunks merge lazily — only once compaction has caught
       up. *)
    && chunk_weight c + chunk_weight n < db.cfg.max_chunk_bytes / 2
  | None -> false

(* Merge [c] with its successor [n]. Exclusive locks are taken in list
   order (as every multi-chunk operation does), so merges cannot
   deadlock against each other or against splits. The merged chunk
   takes a munk; the munk the policy evicts to make room for it is
   dropped once both locks are released, since its chunk may precede
   [c] in the list. *)
let merge_chunks db c n =
  let lc = Chunk.rebalance_lock c in
  Rwlock.lock_exclusive lc;
  Fun.protect
    ~finally:(fun () -> Rwlock.unlock_exclusive lc)
    (fun () ->
      let still_adjacent =
        (not (Chunk.retired c)) && match Chunk.next c with Some x -> x == n | None -> false
      in
      if not still_adjacent then None
      else begin
        let ln = Chunk.rebalance_lock n in
        Rwlock.lock_exclusive ln;
        Fun.protect
          ~finally:(fun () -> Rwlock.unlock_exclusive ln)
          (fun () ->
            if Chunk.retired n then None
            else begin
              Obs.Trace.with_span (Obs.trace db.obs) ~name:"chunk_merge" (fun sp ->
              let floor = min (compaction_floor db c) (compaction_floor db n) in
              (* Under both exclusive locks the funks cannot be flipped
                 or retired (we are their owners), so direct reads are
                 safe. *)
              let content_of ch =
                match Chunk.munk ch with
                | Some m -> Munk.iter m
                | None -> chunk_entries db ch (Chunk.funk ch)
              in
              let entries =
                K.to_list
                  (K.compact ~min_retained_version:floor
                     (K.merge [ content_of c; content_of n ]))
              in
              let funk' = build_funk db ~min_key:(Chunk.min_key c) (K.of_list entries) in
              let counter = max (Chunk.counter_base c) (Chunk.counter_base n) in
              let cm =
                Chunk.create_inheriting ~id:(fresh_chunk_id db) ~min_key:(Chunk.min_key c)
                  ~funk:funk' ~munk:(Some (Munk.of_sorted entries)) ~counter
                  ~freq:(Chunk.freq c)
              in
              swap_funks db ~add:[ funk' ] ~replace:[ Chunk.funk c; Chunk.funk n ]
                ~flip:(fun () -> splice_chunks db ~old:[ c; n ] ~first:cm ~last:cm);
              row_cache_purge db cm;
              Lfu.transfer db.lfu c ~into:[ cm ];
              Lfu.remove db.lfu n;
              let evictee = Lfu.force_insert db.lfu cm in
              Obs.Trace.add_attr sp "entries" (List.length entries);
              evictee)
            end)
      end)
  |> Option.iter (evict_victim db)

(* ------------------------------------------------------------------ *)
(* Put                                                                 *)

let rec put_entry db key value_opt =
  let c = lookup_put db key in
  let lock = Chunk.rebalance_lock c in
  (* Charge the blocking acquire to Lock_wait only when actually
     contended (a rebalance holds or awaits the chunk lock), keeping
     the uncontended path at one try_lock. *)
  if not (Rwlock.try_lock_shared lock) then
    Attr.timed Attr.Lock_wait (fun () -> Rwlock.lock_shared lock);
  let retry = Chunk.retired c in
  if retry then begin
    Rwlock.unlock_shared lock;
    Domain.cpu_relax ();
    put_entry db key value_opt
  end
  else begin
    Fun.protect
      ~finally:(fun () -> Rwlock.unlock_shared lock)
      (fun () ->
        assert (Chunk.covers c ~key);
        let slot = Pending_ops.begin_put db.po ~key in
        Fun.protect
          ~finally:(fun () -> Pending_ops.finish db.po slot)
          (fun () ->
            let gv = Atomic.get db.gv in
            Pending_ops.publish_put_version db.po slot ~key ~version:gv;
            let counter = Chunk.next_counter c in
            let entry : K.entry = { key; value = value_opt; version = gv; counter } in
            let funk = Chunk.funk c in
            let off = Funk.append funk entry in
            Obs.Counter.incr db.ctr_log_appends;
            (match db.committer with
            | Some gc -> Group_commit.sync gc funk
            | None -> ());
            (match Chunk.munk c with
            | Some munk ->
              let may_discard ~old_version ~new_version =
                let pf = persist_floor db in
                (not (old_version <= pf && pf < new_version))
                && not
                     (Pending_ops.exists_scan_between db.po ~key ~old_version ~new_version)
              in
              Munk.put munk ~may_discard entry
            | None ->
              Chunk.bloom_note_put c ~key ~log_offset:off;
              (match value_opt with
              | Some v -> Row_cache.update_if_present db.row_cache key v ~version:gv ~counter
              | None -> Row_cache.invalidate db.row_cache key));
            (* Change-stream tap: by this point the entry is appended
               and — under Sync — covered by the group-commit fsync, so
               the stream never carries unacked data. *)
            match Atomic.get db.commit_hook with
            | Some hook -> Attr.timed Attr.Repl_ship (fun () -> hook entry)
            | None -> ()));
    ignore
      (Atomic.fetch_and_add db.logical_written
         (String.length key + match value_opt with Some v -> String.length v | None -> 0));
    Chunk.record_put c;
    c
  end

and put_entry_and_maintain db key value_opt =
  Topk.observe db.topk (prefix_of key);
  let c =
    (* Tracked so a batch leader's fill-aware formation wait can tell
       whether this writer is mid-append and worth waiting for. *)
    match db.committer with
    | Some gc -> Group_commit.track gc (fun () -> put_entry db key value_opt)
    | None -> put_entry db key value_opt
  in
  note_access db c;
  (* The put itself is durable by this point (or already raised); an
     I/O failure inside piggy-backed maintenance rolls itself back and
     the next over-threshold put retries it, so it is absorbed here and
     surfaced through the "io.errors" counter rather than failing an
     acked write. *)
  (match db.maint with
  | None -> (
    (* Inline maintenance is the put paying for rebalance/split work —
       the attribution cause this layer exists to expose. *)
    try Attr.timed Attr.Rebalance (fun () -> maybe_maintain db c)
    with Env.Io_error _ | Env.Corruption _ -> Obs.Counter.incr db.ctr_io_errors)
  | Some m ->
    if needs_munk_rebalance db c || needs_funk_rebalance db c then begin
      Mutex.lock m.m_mutex;
      if not (Hashtbl.mem m.m_queue (Chunk.id c)) then begin
        Hashtbl.replace m.m_queue (Chunk.id c) c;
        Condition.signal m.m_cond
      end;
      Mutex.unlock m.m_mutex
    end);
  let n = Atomic.fetch_and_add db.put_count 1 + 1 in
  if
    db.cfg.persistence = Config.Async
    && db.cfg.checkpoint_every_puts > 0
    && n mod db.cfg.checkpoint_every_puts = 0
  then
    (* Same policy as maintenance: an opportunistic checkpoint that hits
       an injected fault leaves the previous checkpoint intact and the
       next interval retries; only an explicit [checkpoint] propagates. *)
    try Attr.timed Attr.Fsync (fun () -> checkpoint_auto db)
    with Env.Io_error _ | Env.Corruption _ -> Obs.Counter.incr db.ctr_io_errors

(* ------------------------------------------------------------------ *)
(* Checkpoint (§3.5)                                                   *)

and checkpoint_locked db =
  Obs.Trace.with_span (Obs.trace db.obs) ~name:"checkpoint" (fun _sp ->
      let gv = Atomic.fetch_and_add db.gv 1 in
      Pending_ops.wait_pending_puts db.po ~low:"" ~high:None ~upto:gv;
      Env.fsync_all db.env;
      Checkpoint_file.store db.env ~version:gv;
      Atomic.set db.last_checkpoint gv)

(* Opportunistic (put-path) checkpoint: skip if one is in flight. *)
and checkpoint_auto db =
  if Mutex.try_lock db.checkpoint_mutex then
    Fun.protect ~finally:(fun () -> Mutex.unlock db.checkpoint_mutex) (fun () ->
        checkpoint_locked db)

let checkpoint db =
  Mutex.lock db.checkpoint_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock db.checkpoint_mutex) (fun () ->
      checkpoint_locked db)

let put db key value =
  if Atomic.get db.fenced then raise Fenced;
  Attr.with_op db.attr Attr.Put db.tm_put (fun () -> put_entry_and_maintain db key (Some value))

let delete db key =
  if Atomic.get db.fenced then raise Fenced;
  Attr.with_op db.attr Attr.Delete db.tm_delete (fun () -> put_entry_and_maintain db key None)

let set_commit_hook db hook = Atomic.set db.commit_hook hook

(* ------------------------------------------------------------------ *)
(* Scan (§3.3)                                                         *)

(* The version cut of §3.3, shared by scans and snapshots: announce the
   range in the PO array, take a version, publish it and wait out the
   puts below it. While [f] runs, the slot keeps every version visible
   at the cut from being discarded by a munk put or a compaction. *)
let with_cut db ~low ~high f =
  let slot = Pending_ops.begin_scan db.po ~low ~high in
  Fun.protect
    ~finally:(fun () -> Pending_ops.finish db.po slot)
    (fun () ->
      let gv = Atomic.fetch_and_add db.gv 1 in
      Pending_ops.publish_scan_version db.po slot ~low ~high ~version:gv;
      (* Waiting out in-flight puts below the cut is the scan-side lock
         wait of the paper's §3.3 protocol. *)
      Attr.timed Attr.Lock_wait (fun () -> Pending_ops.wait_pending_puts db.po ~low ~high ~upto:gv);
      f gv)

let scan_internal db ?limit ~low ~high () =
  if String.compare low high > 0 then []
  else
    with_cut db ~low ~high:(Some high) (fun gv ->
        let acc = ref [] in
        let count = ref 0 in
        let max_count = match limit with None -> max_int | Some l -> l in
        (* One chunk's walk: pull visible rows until the stream ends or
           the limit is reached, then commit them. A walk that raises
           (a corrupt block) commits nothing, so the chunk can be
           retried from its log alone without duplicating or skipping
           rows. *)
        let consume it =
          let filtered =
            K.dedup (K.filter (fun (e : K.entry) -> e.version <= gv && visible db e.version) it)
          in
          let rec go n rows =
            if n >= max_count then (n, rows)
            else
              match filtered () with
              | None -> (n, rows)
              | Some { value = None; _ } -> go n rows
              | Some { key; value = Some v; _ } -> go (n + 1) ((key, v) :: rows)
          in
          let n, rows = go !count [] in
          count := n;
          acc := rows @ !acc
        in
        (* [lo] is the residual range start: keys below it were already
           collected from earlier chunks (or retries). *)
        let rec over_chunks lo c =
          note_access db c;
          Chunk.record_scan c;
          let stale =
            match Chunk.munk c with
            | Some munk ->
              consume (Munk.iter_range munk ~low:lo ~high);
              false
            | None -> (
              (* The chunk may have been split underneath us; [Stale]
                 means its funk is gone — re-resolve the residual range
                 through the rebuilt index. [with_pin] never runs the
                 body on failure, so nothing is consumed twice. *)
              try
                Funk.with_pin
                  ~current:(fun () -> Chunk.funk c)
                  (fun funk ->
                    (* Cold path: merge the log's records in range
                       with the SSTable seeked to [lo] (blocks through
                       the shared cache). The SSTable side streams, so
                       a scan reads only the blocks up to its limit. *)
                    Attr.timed Attr.Disk_read @@ fun () ->
                    let log_entries =
                      Funk.log_entries_in_range funk ~visible:(visible db) ~low:lo ~high
                    in
                    (* A corrupt SSTable block degrades this one chunk
                       to its log contents instead of aborting the
                       scan (logs resync past damage and never
                       raise). *)
                    try
                      consume
                        (K.merge
                           [
                             K.of_list log_entries;
                             K.upto ~high (Sstable.Reader.iter_from (Funk.sst funk) lo);
                           ])
                    with Env.Corruption _ -> consume (K.of_list log_entries));
                false
              with Funk.Stale -> true)
          in
          if stale then over_chunks lo (lookup_read db lo)
          else if !count < max_count then
            match Chunk.next c with
            | Some n when String.compare (Chunk.min_key n) high <= 0 ->
              over_chunks (Chunk.min_key n) n
            | _ -> ()
        in
        over_chunks low (lookup_read db low);
        List.rev !acc)

let scan db ?limit ~low ~high () =
  Attr.with_op db.attr Attr.Scan db.tm_scan (fun () -> scan_internal db ?limit ~low ~high ())

(* ------------------------------------------------------------------ *)
(* Open / recovery / close                                             *)

(* Persistence-mode marker: recovery must know whether the *previous*
   incarnation ran synchronously — in that case its funks reflect every
   completed update (§3.5) and the whole epoch is visible, checkpoint
   or not. *)
let mode_file = Snapshot.mode_name

let store_mode env (mode : Config.persistence) =
  Meta_file.publish env ~name:mode_file
    (match mode with Config.Sync -> "sync" | Config.Async -> "async")

let load_mode env : Config.persistence =
  if not (Env.exists env mode_file) then Config.Async
  else if Env.read_all env mode_file = "sync" then Config.Sync
  else Config.Async

(* Failover fencing: the marker survives restarts, so a deposed primary
   stays read-only until an operator removes it. *)
let fence_marker = "FENCED"

let parse_funk_file name =
  (* funk_NNNNNNNN.sst / .log, and the .view sidecars of earlier builds *)
  if String.length name >= 17 && String.sub name 0 5 = "funk_" then
    match int_of_string_opt (String.sub name 5 8) with
    | Some id ->
      let ext = String.sub name 13 (String.length name - 13) in
      if ext = ".sst" then Some (id, `Sst)
      else if ext = ".log" then Some (id, `Log)
      else if ext = ".view" then Some (id, `View)
      else None
    | None -> None
  else None

let span_names =
  [
    "munk_rebalance";
    "chunk_split";
    "cold_funk_rebalance";
    "funk_flush";
    "chunk_merge";
    "checkpoint";
    "recovery";
  ]

let chunk_count db = Chunk_index.size (Atomic.get db.index)

let all_chunks db = Chunk_index.chunks (Atomic.get db.index)

let munk_count db =
  List.length (List.filter (fun c -> Chunk.munk c <> None) (all_chunks db))

let log_space db =
  List.fold_left
    (fun acc c -> acc + Funk.log_size (Chunk.funk c))
    0 (all_chunks db)

(* Snapshot-time gauges: mirror counters owned by layers below obs
   (caches, Io_stats) and structural state, so exports always reflect
   the live store without the lower layers depending on Evendb_obs. *)
let register_probes db =
  let p = Obs.probe db.obs in
  p "cache.row.hits" (fun () -> Row_cache.hits db.row_cache);
  p "cache.row.misses" (fun () -> Row_cache.misses db.row_cache);
  p "cache.row.evictions" (fun () -> Row_cache.evictions db.row_cache);
  p "cache.lfu.hits" (fun () -> Lfu.hits db.lfu);
  p "cache.lfu.misses" (fun () -> Lfu.misses db.lfu);
  p "cache.lfu.evictions" (fun () -> Lfu.evictions db.lfu);
  List.iter (fun (name, read) -> p name read) (Env.counters db.env);
  p "db.chunks" (fun () -> chunk_count db);
  p "db.munks" (fun () -> munk_count db);
  p "db.log_bytes" (fun () -> log_space db);
  p "db.logical_bytes_written" (fun () -> Atomic.get db.logical_written)

let make_db env cfg ~obs ~committer ~head ~chunks ~gv ~rt ~epoch ~last_checkpoint ~next_funk_id =
  let lfu = Lfu.create ~capacity:cfg.Config.munk_cache_capacity () in
  List.iter
    (fun c -> if Chunk.munk c <> None then ignore (Lfu.force_insert lfu c))
    chunks;
  let live_funks = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace live_funks (Funk.id (Chunk.funk c)) (Chunk.funk c)) chunks;
  List.iter (Obs.Trace.declare (Obs.trace obs)) span_names;
  let db = {
    env;
    cfg;
    head = Atomic.make head;
    index = Atomic.make (Chunk_index.build chunks);
    gv = Atomic.make gv;
    po = Pending_ops.create ~slots:po_slots ();
    row_cache =
      Row_cache.create ~tables:row_cache_tables
        ~capacity_per_table:cfg.Config.row_cache_capacity_per_table ();
    lfu;
    rt;
    epoch;
    last_checkpoint = Atomic.make last_checkpoint;
    next_funk_id = Atomic.make next_funk_id;
    next_chunk_id = Atomic.make (List.length chunks);
    live_funks;
    structural = Mutex.create ();
    checkpoint_mutex = Mutex.create ();
    rstats = Read_stats.create ~detailed:cfg.Config.collect_read_stats;
    topk = Topk.create ~capacity:cfg.Config.topk_capacity ();
    logical_written = Atomic.make 0;
    put_count = Atomic.make 0;
    closed = Atomic.make false;
    fenced = Atomic.make (Env.exists env fence_marker);
    commit_hook = Atomic.make None;
    committer =
      (* A caller-supplied committer lets several stores share one batch
         stream (the sharded front end: one fsync can cover appends to
         every shard's log). Only meaningful under Sync — ignored
         otherwise, matching the put path which never consults it. *)
      (if cfg.Config.persistence = Config.Sync then
         match committer with
         | Some _ as c -> c
         | None ->
           Some
             (Group_commit.create ~max_batch:cfg.Config.group_commit_max_batch obs)
       else None);
    maint =
      (if cfg.Config.background_maintenance then
         Some
           {
             m_mutex = Mutex.create ();
             m_cond = Condition.create ();
             m_queue = Hashtbl.create 16;
             m_stop = false;
             m_domain = None;
           }
       else None);
    obs;
    attr = Attr.create ~enabled:cfg.Config.attr_enabled obs;
    tm_put = Obs.timer obs "db.put";
    tm_get = Obs.timer obs "db.get";
    tm_delete = Obs.timer obs "db.delete";
    tm_scan = Obs.timer obs "db.scan";
    ctr_log_appends = Obs.counter obs "funk.log_appends";
    ctr_funk_flushes = Obs.counter obs "funk.flushes";
    ctr_funk_merges = Obs.counter obs "funk.merges";
    ctr_io_errors = Obs.counter obs "io.errors";
    ctr_maint_failures = Obs.counter obs "maint.failures";
    opened_at_ns = Obs.now_ns ();
  }
  in
  (* Eager-register the snapshot/backup counter families so a full
     exposition always carries them (with HELP/TYPE), not only after
     the first snapshot or backup. *)
  List.iter
    (fun n -> ignore (Obs.counter obs n))
    [ "snapshot.created"; "snapshot.dropped"; "backup.funks_shipped"; "backup.bytes" ];
  register_probes db;
  db

let maintainer_loop db m =
  let rec next () =
    Mutex.lock m.m_mutex;
    let rec await () =
      if m.m_stop then begin
        Mutex.unlock m.m_mutex;
        None
      end
      else begin
        let item =
          let found = ref None in
          (try
             Hashtbl.iter
               (fun id c ->
                 found := Some (id, c);
                 raise Exit)
               m.m_queue
           with Exit -> ());
          !found
        in
        match item with
        | Some (id, c) ->
          Hashtbl.remove m.m_queue id;
          Mutex.unlock m.m_mutex;
          Some c
        | None ->
          Condition.wait m.m_cond m.m_mutex;
          await ()
      end
    in
    match await () with
    | None -> ()
    | Some c ->
      (try maybe_maintain db c with
      | Funk.Stale -> ()
      | Env.Io_error _ | Env.Corruption _ ->
        (* Maintenance failed cleanly; the chunk re-queues on the next
           over-threshold put. *)
        Obs.Counter.incr db.ctr_io_errors
      | Out_of_memory | Stack_overflow as exn -> raise exn
      | _ ->
        (* Anything else is a defect, but ending the domain would stop
           maintenance silently for the rest of the process: count it
           and keep serving later chunks. *)
        Obs.Counter.incr db.ctr_maint_failures);
      next ()
  in
  next ()

let start_maintainer db =
  match db.maint with
  | Some m -> m.m_domain <- Some (Domain.spawn (fun () -> maintainer_loop db m))
  | None -> ()

let stop_maintainer db =
  match db.maint with
  | Some m ->
    Mutex.lock m.m_mutex;
    m.m_stop <- true;
    Condition.broadcast m.m_cond;
    Mutex.unlock m.m_mutex;
    (match m.m_domain with Some d -> Domain.join d | None -> ());
    m.m_domain <- None
  | None -> ()

let open_internal config ~committer env =
  let obs = Obs.create () in
  match Manifest.load env with
  | None ->
    (* Fresh database: one sentinel chunk covering the whole key space,
       with an empty funk and an empty resident munk. *)
    let funk =
      Funk.create_from_iter env ~block_bytes:config.Config.sstable_block_bytes ~id:0 ~min_key:""
        (K.of_list [])
    in
    Manifest.store env { next_id = 1; live = [ 0 ] };
    Recovery_table.store env Recovery_table.empty;
    store_mode env config.Config.persistence;
    let chunk = Chunk.create ~id:0 ~min_key:"" ~funk ~munk:(Some (Munk.of_sorted [])) in
    make_db env config ~obs ~committer ~head:chunk ~chunks:[ chunk ] ~gv:(Version.pack ~epoch:0 ~seq:0)
      ~rt:Recovery_table.empty ~epoch:0 ~last_checkpoint:(-1) ~next_funk_id:1
  | Some manifest ->
    (* Recovery (§3.5): bump the epoch, record the previous epoch's
       checkpoint in the recovery table, rebuild chunk metadata from
       the funk files, and resume; data loads into munks lazily. *)
    Obs.Trace.with_span (Obs.trace obs) ~name:"recovery"
      ~attrs:[ ("funks", List.length manifest.Manifest.live) ]
      (fun recovery_sp ->
    let rt_old = Recovery_table.load env in
    let ckpt = Checkpoint_file.load env in
    let prev_epoch = Recovery_table.max_epoch rt_old + 1 in
    let prev_ckpt_seq =
      match load_mode env with
      | Config.Sync ->
        (* Synchronous persistence: every completed put is on disk. *)
        (1 lsl Version.seq_bits) - 1
      | Config.Async -> (
        match ckpt with
        | Some v when Version.epoch v = prev_epoch -> Version.seq v
        | _ -> -1)
    in
    let rt = Recovery_table.add rt_old ~epoch:prev_epoch ~last_seq:prev_ckpt_seq in
    Recovery_table.store env rt;
    store_mode env config.Config.persistence;
    let epoch = prev_epoch + 1 in
    if epoch > Version.max_epoch then failwith "Evendb: epoch space exhausted";
    (* Remove leftovers of interrupted rebuilds. Quarantined files (moved
       aside by fsck --repair) are evidence, never swept; snapshot
       members are pinned by their own namespace, where only
       half-published snapshots (no COMPLETE marker — a crash between
       pin and publish) are collected; telemetry journal segments are
       observational history a future sampler resumes over. The sorted-
       view sidecars ([funk_*.view]) that earlier builds kept next to
       each funk are no longer read, so they go too, live or not. *)
    let live_set = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace live_set id ()) manifest.Manifest.live;
    List.iter
      (fun name ->
        if not (Env.is_quarantined name || Env.is_snapshot name || Env.is_telemetry name)
        then
          match parse_funk_file name with
          | Some (_, `View) -> Env.delete env name
          | Some (id, _) when not (Hashtbl.mem live_set id) -> Env.delete env name
          | Some _ -> ()
          | None -> if Filename.check_suffix name ".tmp" then Env.delete env name)
      (Env.list_files env);
    ignore (Snapshot.sweep_orphans env);
    let funks = List.map (fun id -> Funk.open_existing env ~id) manifest.Manifest.live in
    (* Two live funks under one min-key: [swap_funks] never stores
       that, but stores written by earlier builds (which published in
       two manifest updates) can hold a replaced funk next to its
       replacement. The replacement (higher id) is a superset — the
       flip happened under the chunk's exclusive rebalance lock — so
       keep it and sweep the stale one. Persist the pruned manifest
       before deleting so a second crash cannot resurrect the loser. *)
    let by_key = Hashtbl.create 16 in
    List.iter
      (fun f ->
        let k = Funk.min_key f in
        match Hashtbl.find_opt by_key k with
        | Some prev when Funk.id prev >= Funk.id f -> ()
        | _ -> Hashtbl.replace by_key k f)
      funks;
    let losers = List.filter (fun f -> Hashtbl.find by_key (Funk.min_key f) != f) funks in
    let funks, manifest =
      match losers with
      | [] -> (funks, manifest)
      | _ ->
        let keep = List.filter (fun f -> not (List.memq f losers)) funks in
        let manifest =
          { manifest with Manifest.live = List.map Funk.id keep }
        in
        Manifest.store env manifest;
        List.iter Funk.retire losers;
        (keep, manifest)
    in
    let funks =
      List.sort (fun a b -> String.compare (Funk.min_key a) (Funk.min_key b)) funks
    in
    (match funks with
    | f :: _ when Funk.min_key f = "" -> ()
    | _ -> invalid_arg "Evendb.open_: missing sentinel funk");
    let chunks =
      List.mapi (fun i f -> Chunk.create ~id:i ~min_key:(Funk.min_key f) ~funk:f ~munk:None) funks
    in
    let rec link = function
      | a :: (b :: _ as rest) ->
        Chunk.set_next a (Some b);
        link rest
      | _ -> ()
    in
    link chunks;
    let head = List.hd chunks in
    let last_ckpt = match ckpt with Some v -> v | None -> -1 in
    Obs.Trace.add_attr recovery_sp "chunks" (List.length chunks);
    Obs.Trace.add_attr recovery_sp "bytes"
      (List.fold_left (fun acc f -> acc + Funk.total_bytes f) 0 funks);
    make_db env config ~obs ~committer ~head ~chunks ~gv:(Version.pack ~epoch ~seq:0) ~rt ~epoch
      ~last_checkpoint:last_ckpt ~next_funk_id:manifest.Manifest.next_id)

let open_ ?(config = Config.default) ?committer env =
  Config.validate config;
  (* No-op when the env already carries a cache — a store opened on a
     shard's sub-env joins the parent's (store-wide) budget. *)
  Env.install_block_cache env ~capacity_bytes:config.Config.block_cache_bytes;
  let db = open_internal config ~committer env in
  start_maintainer db;
  db

let open_dir ?config dir = open_ ?config (Env.disk dir)

(* ------------------------------------------------------------------ *)
(* Fencing and snapshots                                               *)

let fence db =
  Meta_file.publish db.env ~name:fence_marker "fenced";
  Atomic.set db.fenced true

let fenced db = Atomic.get db.fenced

let unfence db =
  Env.delete db.env fence_marker;
  Atomic.set db.fenced false

(* Pin the manifest's live set. [swap_funks] drops a funk from the set
   under [structural] before it retires it, so every member is
   unretired here and its pin cannot fail. *)
let pin_live_funks db =
  Mutex.protect db.structural (fun () ->
      Hashtbl.fold
        (fun _ f acc ->
          let pinned = Funk.acquire f in
          assert pinned;
          f :: acc)
        db.live_funks [])
  |> List.sort (fun a b -> String.compare (Funk.min_key a) (Funk.min_key b))

let count_dropped db n = Obs.Counter.add (Obs.counter db.obs "snapshot.dropped") n

(* A snapshot is a whole-range scan that keeps its files: its cut holds
   a PO scan slot until the live set is pinned, so no version visible
   at the cut is compacted away first. The copy runs after the slot is
   released and does not hold back compaction floors. *)
let snapshot db ~id =
  Snapshot.validate_id id;
  if Snapshot.exists db.env ~id then
    invalid_arg (Printf.sprintf "Db.snapshot: snapshot %S already exists" id);
  Mutex.protect db.checkpoint_mutex (fun () ->
      let version, pinned = with_cut db ~low:"" ~high:None (fun v -> (v, pin_live_funks db)) in
      let info =
        Fun.protect
          ~finally:(fun () -> List.iter Funk.release pinned)
          (fun () ->
            Snapshot.publish db.env ~id ~version ~next_id:(Atomic.get db.next_funk_id) ~rt:db.rt
              pinned)
      in
      Obs.Counter.incr (Obs.counter db.obs "snapshot.created");
      count_dropped db
        (Snapshot.enforce_retention db.env ~max_retained:db.cfg.Config.snapshot_max_retained);
      info)

let list_snapshots db = Snapshot.list db.env

let drop_snapshot db ~id =
  if Snapshot.exists db.env ~id then begin
    Snapshot.drop db.env ~id;
    count_dropped db 1
  end

let chunk_weights db =
  List.map
    (fun c -> (Chunk.min_key c, chunk_weight c, Chunk.munk c <> None))
    (all_chunks db)

let write_amplification db =
  let written = (Io_stats.snapshot (Env.stats db.env)).Io_stats.bytes_written in
  let logical = logical_bytes_written db in
  if logical = 0 then 0.0 else float_of_int written /. float_of_int logical

(* ------------------------------------------------------------------ *)
(* Spatial-locality telemetry                                          *)

type chunk_stat = {
  cs_id : int;
  cs_min_key : string;
  cs_munk_resident : bool;
  cs_resident_bytes : int;
  cs_stat : Chunk.stat;
}

let chunk_stats db =
  List.map
    (fun c ->
      {
        cs_id = Chunk.id c;
        cs_min_key = Chunk.min_key c;
        cs_munk_resident = Chunk.munk c <> None;
        cs_resident_bytes = (match Chunk.munk c with Some m -> Munk.byte_size m | None -> 0);
        cs_stat = Chunk.stat c ~heat:(Lfu.frequency db.lfu c);
      })
    (all_chunks db)

let hot_prefixes db = (Topk.entries db.topk, Topk.total db.topk)
let dump_trace db = Obs.to_chrome_trace ~extra:(Attr.chrome_events db.attr) db.obs

let uptime_ns db = now_ns () - db.opened_at_ns

(* Per-tick gauges the registry doesn't carry: uptime and the hottest
   key prefixes from the Space-Saving sketch (lower-bound counts,
   hottest first). *)
let sampler_gauges db =
  let entries, _total = hot_prefixes db in
  let hot =
    entries
    |> List.filteri (fun i _ -> i < 16)
    |> List.map (fun (prefix, lo, _hi) -> ("hot." ^ prefix, lo))
  in
  ("db.uptime_ns", uptime_ns db) :: hot

let reset_metrics db =
  Obs.reset db.obs;
  Attr.reset db.attr;
  Read_stats.reset db.rstats;
  List.iter Chunk.reset_counters (all_chunks db);
  Topk.reset db.topk

(* Non-zero resettable metrics — anything here right after
   [reset_metrics] on a quiescent store is a bug. Gauges and probes are
   excluded: they mirror live structural state (chunk counts, resident
   bytes) that reset must not touch. *)
let metrics_residue db =
  let s = Obs.snapshot db.obs in
  let from_registry =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Obs.Counter n when n <> 0 -> Some name
        | Obs.Timer tm when tm.Obs.t_count <> 0 -> Some name
        | _ -> None)
      s.Obs.metrics
  in
  let from_spans =
    List.filter_map
      (fun (st : Obs.Trace.span_stat) ->
        if st.Obs.Trace.span_count <> 0 then Some ("span." ^ st.Obs.Trace.span_name) else None)
      s.Obs.spans
  in
  let from_chunks = List.concat_map Chunk.counter_residue (all_chunks db) in
  let from_topk = if Topk.total db.topk <> 0 then [ "topk.total" ] else [] in
  from_registry @ from_spans @ from_chunks @ from_topk

let maintain db =
  let rec fixpoint iter =
    if iter < 8 then begin
      let dirty = ref false in
      List.iter
        (fun c ->
          if (not (Chunk.retired c)) && (needs_munk_rebalance db c || needs_funk_rebalance db c)
          then begin
            dirty := true;
            maybe_maintain db c
          end
          else if not (Chunk.retired c) then
            (* Explicit maintenance compacts opportunistically too, so
               post-maintain weights reflect live data (merge trigger,
               tests, phase boundaries in benchmarks). Tombstones may
               sit in-place-overwritten cells with nothing appended. *)
            match Chunk.munk c with
            | Some m when Munk.appended_count m > 0 || Munk.tombstone_count m > 0 ->
              dirty := true;
              munk_rebalance ~force:true db c
            | _ -> ())
        (all_chunks db);
      (* Merge underflowing neighbours to a fixpoint (each merge
         changes the list, so re-scan after every one). *)
      let rec merge_pass budget =
        if budget > 0 then
          match List.find_opt (fun c -> needs_merge db c) (all_chunks db) with
          | Some c -> (
            match Chunk.next c with
            | Some n ->
              dirty := true;
              merge_chunks db c n;
              merge_pass (budget - 1)
            | None -> ())
          | None -> ()
      in
      merge_pass (List.length (all_chunks db));
      if !dirty then fixpoint (iter + 1)
    end
  in
  fixpoint 0

let evict_munk db key =
  let c = lookup_put db key in
  evict_munk_chunk db c

let close db =
  if Atomic.compare_and_set db.closed false true then begin
    stop_maintainer db;
    (* An I/O failure in the final checkpoint/fsync propagates (the
       caller learns the shutdown was not clean), but the log writers
       are closed regardless so no descriptors leak. *)
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun c -> try Funk.close_log (Chunk.funk c) with _ -> ())
          (all_chunks db))
      (fun () ->
        (match db.cfg.persistence with Config.Async -> checkpoint db | Config.Sync -> ());
        Env.fsync_all db.env)
  end
