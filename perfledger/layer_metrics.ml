(* Per-layer metrics of one traced run, from the differenced samples
   summed over its rounds and the rounds' own [Runner] results. *)

open Evendb_util
module Attr = Evendb_obs.Attr
module Runner = Evendb_ycsb.Runner

let per num den = if den > 0.0 then num /. den else 0.0

(* No workload replicates, so [Repl_ship] is never charged. *)
let causes = List.filter (fun c -> c <> Attr.Repl_ship) Attr.all_causes

let compute (acc : Layers.sample) ~rounds =
  let d k = Option.value ~default:0.0 (Hashtbl.find_opt acc k) in
  let count f = float_of_int (List.fold_left (fun a (r, traced) -> a + f r traced) 0 rounds) in
  let ops = count (fun r _ -> r.Runner.ops) in
  let traced_ops = count (fun r traced -> if traced then r.Runner.ops else 0) in
  let puts = count (fun r _ -> Histogram.count r.Runner.put_hist) in
  let kputs = puts /. 1e3 in
  let scans = count (fun r _ -> Histogram.count r.Runner.scan_hist) in
  let pooled f rounds =
    let h = Histogram.create () in
    List.iter (fun (r, _) -> Histogram.merge_into ~src:(f r) ~dst:h) rounds;
    h
  in
  (* Per-kind latencies come from the rounds with the middleware off.
     [Runner.run] times ops with a 1 us clock, so a median of a few us
     would read as a whole number; the mean of the same samples does
     not. A tail needs at least ten samples beyond it. *)
  let plain = List.filter (fun (_, traced) -> not traced) rounds in
  let kind name f =
    let h = pooled f plain in
    let n = Histogram.count h in
    [
      (name ^ "_mean_us", Histogram.mean h /. 1e3);
      (name ^ "_p99_us", if n >= 1000 then float_of_int (Histogram.percentile h 99.0) /. 1e3 else 0.0);
      (name ^ ".samples", float_of_int n);
    ]
  in
  let mw io field = d ("mw." ^ io ^ "." ^ field) in
  let ratio hits misses = per (d hits) (d hits +. d misses) in
  let reads = [ "munk"; "row-cache"; "log"; "sstable"; "missing" ] in
  let read_total = List.fold_left (fun a c -> a +. d ("rs." ^ c ^ ".count")) 0.0 reads in
  let share c = per (d ("rs." ^ c ^ ".count")) read_total in
  let read_us c = per (d ("rs." ^ c ^ ".sum_ns")) (d ("rs." ^ c ^ ".count")) /. 1e3 in
  let span name field = d ("span." ^ name ^ "." ^ field) in
  let timer_mean name = per (d (name ^ ".sum_ns")) (d (name ^ ".count")) in
  let shard_puts =
    Hashtbl.fold (fun k v acc -> if String.starts_with ~prefix:"puts.shard" k then v :: acc else acc) acc []
  in
  let skew =
    match shard_puts with
    | [] -> 0.0
    | xs -> per (List.fold_left max 0.0 xs) (List.fold_left min infinity xs)
  in
  let get_mean_ns = Histogram.mean (pooled (fun r -> r.Runner.get_hist) rounds) in
  let kops traced = Workloads.median (List.filter_map (fun (r, t) -> if t = traced then Some r.Runner.kops else None) rounds) in
  let attr c = d ("attr." ^ Attr.cause_name c) in
  kind "put" (fun r -> r.Runner.put_hist)
  @ kind "get" (fun r -> r.Runner.get_hist)
  @ kind "scan" (fun r -> r.Runner.scan_hist)
  @ [
      ("storage.read.calls_per_op", per (mw "read" "calls") traced_ops);
      ("storage.read.us_per_call", per (mw "read" "ns") (mw "read" "calls") /. 1e3);
      ("storage.read.kib_per_op", per (mw "read" "bytes" /. 1024.0) traced_ops);
      ("storage.append.calls_per_op", per (mw "append" "calls") traced_ops);
      ("storage.append.kib_per_op", per (mw "append" "bytes" /. 1024.0) traced_ops);
      ("storage.fsync.calls_per_op", per (mw "fsync" "calls") traced_ops);
      ("storage.fsync.us_per_call", per (mw "fsync" "ns") (mw "fsync" "calls") /. 1e3);
      ("cache.munk.hit_ratio", ratio "cache.lfu.hits" "cache.lfu.misses");
      ("cache.row.hit_ratio", ratio "cache.row.hits" "cache.row.misses");
      ("cache.block.hit_ratio", ratio "bc.hits" "bc.misses");
      ("cache.block.fills_per_op", per (d "bc.fills") ops);
      ("reads.munk_share", share "munk");
      ("munk.rebalances_per_kput", per (span "munk_rebalance" "count") kputs);
      ("munk.rebalance_us_per_put", per (span "munk_rebalance" "total_ns") puts /. 1e3);
      ("reads.log_share", share "log");
      ("reads.log_get_us", read_us "log");
      ("funk.cold_rebalances_per_kput", per (span "cold_funk_rebalance" "count") kputs);
      ("funk.cold_rebalance_kib_per_put", per (span "cold_funk_rebalance" "bytes" /. 1024.0) puts);
      ("funk.cold_rebalance_us_per_put", per (span "cold_funk_rebalance" "total_ns") puts /. 1e3);
      ("funk.flushes_per_kput", per (d "funk.flushes") kputs);
      ("reads.sst_share", share "sstable");
      ("reads.sst_get_us", read_us "sstable");
      ("chunk.splits_per_kput", per (span "chunk_split" "count") kputs);
      ("view.scans_per_scan", per (d "sorted_view.scans") scans);
      ("view.builds_per_kput", per (d "sorted_view.builds") kputs);
      ("view.stale_fallbacks", d "sorted_view.stale_fallbacks");
      ("commit.batch_size_mean", timer_mean "commit.batch_size");
      ("commit.fsyncs_per_put", per (d "commit.fsyncs") puts);
      ("commit.reform_us_mean", timer_mean "commit.reform" /. 1e3);
      ("commit.fsync_us_mean", timer_mean "commit.fsync" /. 1e3);
      ("shard.put_skew", skew);
      ("lsm.stalls_per_kput", per (d "lsm.stalls" +. d "flsm.stalls") kputs);
    ]
  (* Per op of the attribution handle's own ops: a sharded store's
     handle sees only the ops its shard charged. *)
  @ List.map (fun c -> ("attr." ^ Attr.cause_name c ^ ".us_per_op", per (attr c) (d "attr.ops") /. 1e3)) causes
  @ [
      ("closure.attr_frac", per (List.fold_left (fun a c -> a +. attr c) 0.0 Attr.all_causes) (d "attr.ops_ns"));
      ( "closure.get_frac",
        per (per (List.fold_left (fun a c -> a +. d ("rs." ^ c ^ ".sum_ns")) 0.0 reads) read_total) get_mean_ns );
      ("trace.overhead_pct", 100.0 *. (1.0 -. per (kops true) (kops false)));
    ]
