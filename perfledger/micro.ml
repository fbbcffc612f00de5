(* Isolated calls into single layers, timed with bechamel as the
   bench harness's micro experiment times them. They do not depend on
   the workload. *)

open Evendb_util
open Evendb_storage
open Evendb_core
module Obs = Evendb_obs.Obs

let mean_ns ~quota name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second quota) ~stabilize:false () in
  let clock = Toolkit.Instance.monotonic_clock in
  let results = Benchmark.all cfg [ clock ] test in
  let ols = Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) clock results in
  Hashtbl.fold
    (fun _ o acc -> match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> acc)
    ols Float.nan

let entry ?(version = 1) key value = { Kv_iter.key; value = Some value; version; counter = 0 }

(* Each probe sizes its structure like the engine does under the
   ledger's config: 4 KiB blocks, a munk-less funk log at its 32 KiB
   rebalance limit split 16 ways, a chunk's worth of munk entries. *)
let all ~quota () =
  let kib4 = String.init 4096 (fun i -> Char.chr (i land 255)) in
  let value = String.make Workloads.value_bytes 'v' in
  let key i = Evendb_ycsb.Keys.encode (i * 7919) in
  let cursor n =
    let i = ref 0 in
    fun () ->
      i := (!i + 1) mod n;
      !i
  in
  let cfg = Workloads.evendb_config ~traced:false ~sync:false in
  let crc = mean_ns ~quota "crc32c" (fun () -> ignore (Crc32c.string kib4)) in
  let bc_hit =
    let bc = Evendb_cache.Block_cache.create ~capacity_bytes:(1 lsl 20) () in
    let block = Bigslice.of_string kib4 in
    mean_ns ~quota "block hit" (fun () ->
        ignore (Evendb_cache.Block_cache.find_or_fill bc ~space:0 ~file:"f" ~index:0 ~fill:(fun () -> block)))
  in
  let bc_fill =
    (* A cache of 16 blocks fed ever-new indices: every call misses,
       reads and checksums a block, inserts it and evicts one. *)
    let e = Env.memory () in
    let f = Env.create e "blocks" in
    for _ = 1 to 16 do
      Env.append f kib4
    done;
    Env.fsync f;
    let bc = Evendb_cache.Block_cache.create ~shards:1 ~capacity_bytes:(16 * 4096) () in
    let next = ref 0 in
    mean_ns ~quota "block fill" (fun () ->
        incr next;
        ignore
          (Evendb_cache.Block_cache.find_or_fill bc ~space:0 ~file:"blocks" ~index:!next ~fill:(fun () ->
               let b = Env.pread e "blocks" ~off:(!next land 15 * 4096) ~len:4096 in
               ignore (Crc32c.bigslice b ~pos:0 ~len:4096);
               b)))
  in
  let sst =
    let e = Env.memory () in
    Env.install_block_cache e ~capacity_bytes:(8 * Workloads.mib);
    let n = 2000 in
    let keys = Array.init n key in
    Array.sort compare keys;
    let b = Evendb_sstable.Sstable.Builder.create e ~block_size:cfg.Config.sstable_block_bytes ~name:"t.sst" ~min_key:"" () in
    Array.iter (fun k -> Evendb_sstable.Sstable.Builder.add b (entry k value)) keys;
    Evendb_sstable.Sstable.Builder.finish b;
    let r = Evendb_sstable.Sstable.Reader.open_ e "t.sst" in
    let next = cursor n in
    mean_ns ~quota "sstable get" (fun () -> ignore (Evendb_sstable.Sstable.Reader.get r keys.(next ())))
  in
  let log_records = cfg.Config.funk_log_limit_no_munk / (Workloads.value_bytes + 30) in
  let log_search =
    let e = Env.memory () in
    let funk = Funk.create_from_iter e ~block_bytes:cfg.Config.sstable_block_bytes ~id:1 ~min_key:"" (Kv_iter.of_list []) in
    for i = 0 to log_records - 1 do
      ignore (Funk.append funk (entry ~version:(i + 1) (key i) value))
    done;
    mean_ns ~quota "funk log search" (fun () ->
        ignore (Funk.get_from_log funk ~visible:(fun _ -> true) ~max_version:max_int (key 0)))
  in
  let log_append =
    let e = Env.memory () in
    let w = ref (Evendb_log.Log_file.Writer.create e "a.log") in
    mean_ns ~quota "log append" (fun () ->
        if Evendb_log.Log_file.Writer.size !w > 4 * Workloads.mib then begin
          Evendb_log.Log_file.Writer.close !w;
          w := Evendb_log.Log_file.Writer.create e "a.log"
        end;
        ignore (Evendb_log.Log_file.Writer.append !w (entry (key 1) value)))
  in
  let bloom =
    let seg = max 1024 (cfg.Config.funk_log_limit_no_munk / cfg.Config.bloom_split_factor) in
    let b =
      Evendb_bloom.Partitioned_bloom.create ~bits_per_key:cfg.Config.bloom_bits_per_key ~segment_bytes:seg
        ~expected_keys_per_segment:(max 64 (seg / 64)) ()
    in
    for i = 0 to log_records - 1 do
      Evendb_bloom.Partitioned_bloom.add b ~key:(key i) ~log_offset:(i * (Workloads.value_bytes + 30))
    done;
    let next = cursor log_records in
    mean_ns ~quota "bloom query" (fun () ->
        ignore (Evendb_bloom.Partitioned_bloom.segments_maybe_containing b (key (next ()))))
  in
  let chunk_entries = cfg.Config.max_chunk_bytes / (Workloads.value_bytes + 14) in
  let munk () =
    let m = Evendb_munk.Munk.of_sorted (List.init chunk_entries (fun i -> entry (Printf.sprintf "k%08d" (2 * i)) value)) in
    for i = 0 to (chunk_entries / 2) - 1 do
      Evendb_munk.Munk.put m (entry ~version:2 (Printf.sprintf "k%08d" ((4 * i) + 1)) value)
    done;
    m
  in
  let munk_find =
    let m = munk () in
    let next = cursor chunk_entries in
    mean_ns ~quota "munk find" (fun () -> ignore (Evendb_munk.Munk.find_latest m (Printf.sprintf "k%08d" (next ()))))
  in
  let munk_put =
    (* Timed by hand in batches that each start from a fresh munk and
       stop at the engine's rebalance trigger, so the unsorted region
       stays as long as it gets in the store and building the munk is
       not charged to the puts. *)
    let n = cfg.Config.munk_rebalance_appended in
    let keys = Array.init n (fun i -> Printf.sprintf "k%08d" ((2 * (i * 7 mod chunk_entries)) + 1)) in
    let total = ref 0 and count = ref 0 in
    let stop = Obs.now_ns () + int_of_float (quota *. 1e9) in
    while Obs.now_ns () < stop do
      let m = munk () in
      let t0 = Obs.now_ns () in
      Array.iteri (fun i k -> Evendb_munk.Munk.put m (entry ~version:(i + 3) k value)) keys;
      total := !total + (Obs.now_ns () - t0);
      count := !count + n
    done;
    float_of_int !total /. float_of_int (max 1 !count)
  in
  let rebalance_per_entry =
    let m = munk () in
    mean_ns ~quota "munk rebalance" (fun () -> ignore (Evendb_munk.Munk.rebalance m ~min_retained_version:None))
    /. float_of_int (Evendb_munk.Munk.entry_count m)
  in
  let route =
    (* One split key, as sync.sharded's two shards have. *)
    let middle = Evendb_ycsb.Keys.encode (1 lsl (Evendb_ycsb.Keys.key_bits - 1)) in
    let s = Evendb_shard.open_ ~config:cfg ~boundaries:[ middle ] (Env.memory ()) in
    let next = cursor 4096 in
    let r = mean_ns ~quota "shard route" (fun () -> ignore (Evendb_shard.route s (key (next ())))) in
    Evendb_shard.close s;
    r
  in
  [
    ("crc32c.ns_per_kib", crc /. 4.0);
    ("cache.block.hit_ns", bc_hit);
    ("cache.block.fill_ns_per_kib", bc_fill /. 4.0);
    ("sstable.get_ns", sst);
    ("funk.log_search_us", log_search /. 1e3);
    ("log.append_ns", log_append);
    ("bloom.query_ns", bloom);
    ("munk.find_ns", munk_find);
    ("munk.put_ns", munk_put);
    ("munk.rebalance_ns_per_entry", rebalance_per_entry);
    ("shard.route_ns", route);
  ]
