(* Figure 9: EvenDB get-latency breakdown by serving component under
   workload A — fraction of gets served by munks / row cache / funk
   logs / SSTables, and the on-disk components' latencies. *)

open Evendb_core
open Evendb_storage
open Evendb_ycsb

let run_one (h : Harness.t) dist ~items ~ops =
  let env = Env.memory () in
  let cfg = { (Harness.evendb_config h) with Config.collect_read_stats = true } in
  let db = Db.open_ ~config:cfg env in
  let e = Engine.of_db db env in
  let shared = Workload.create_shared ~value_bytes:h.value_bytes dist ~items ~seed:23 in
  Runner.load e shared;
  ignore (Runner.run e shared Runner.workload_c ~ops:(min 2000 ops) ~threads:1);
  let r0 = Db.read_stats db in
  ignore r0;
  ignore (Runner.run e shared Runner.workload_a ~ops ~threads:h.threads);
  let s = Db.read_stats db in
  Harness.dump_metrics e ~phase:"final";
  e.Engine.close ();
  s

let run (h : Harness.t) =
  Report.heading "Figure 9a: fraction of gets by serving component (workload A)";
  let dists = [ Workload.Zipf_composite 0.99; Workload.Zipf_simple 0.99 ] in
  let summaries =
    List.concat_map
      (fun dist ->
        List.map
          (fun (bytes, label) ->
            let items = Harness.items_for h bytes in
            (Workload.dist_name dist, label, run_one h dist ~items ~ops:h.ops))
          (Harness.dataset_sizes h))
      dists
  in
  Report.table
    ~header:[ "distribution"; "dataset"; "munk %"; "row-cache %"; "log %"; "sstable %"; "missing %" ]
    (List.map
       (fun (dist, label, (s : Read_stats.summary)) ->
         let f c =
           Printf.sprintf "%.1f" (100.0 *. List.assoc c s.Read_stats.fractions)
         in
         [
           dist; label;
           f Read_stats.Munk_cache; f Read_stats.Row_cache;
           f Read_stats.Funk_log; f Read_stats.Sstable; f Read_stats.Missing;
         ])
       summaries);
  Report.heading "Figure 9b: on-disk get latency by component (mean / p99 us)";
  Report.table
    ~header:[ "distribution"; "dataset"; "log"; "log p99"; "sstable"; "sstable p99" ]
    (List.map
       (fun (dist, label, (s : Read_stats.summary)) ->
         let lat c = List.assoc c s.Read_stats.latencies in
         let mean c = (lat c).Read_stats.mean /. 1000.0 in
         let p99 c = float_of_int (lat c).Read_stats.p99 /. 1000.0 in
         [
           dist; label;
           Printf.sprintf "%.1f" (mean Read_stats.Funk_log);
           Printf.sprintf "%.1f" (p99 Read_stats.Funk_log);
           Printf.sprintf "%.1f" (mean Read_stats.Sstable);
           Printf.sprintf "%.1f" (p99 Read_stats.Sstable);
         ])
       summaries)
