(* Figure 12: sensitivity to EvenDB configuration parameters on the
   large dataset — (a) the munk-less funk-log size limit under
   workloads A and E100; (b) the bloom filter split factor under
   workload A. *)

open Evendb_core
open Evendb_ycsb

let run_one (h : Harness.t) cfg dist ~items ~mix ~ops =
  let e = Engine.evendb ~config:cfg (Evendb_storage.Env.memory ()) in
  Fun.protect
    ~finally:(fun () ->
      Harness.dump_metrics e ~phase:"final";
      e.Engine.close ())
    (fun () ->
      let shared = Workload.create_shared ~value_bytes:h.value_bytes dist ~items ~seed:29 in
      Runner.load e shared;
      let r = Runner.run e shared mix ~ops ~threads:h.threads in
      r.Runner.kops)

let run (h : Harness.t) =
  let bytes, _ = List.nth (Harness.dataset_sizes h) 2 in
  let items = Harness.items_for h bytes in
  let base = Harness.evendb_config h in
  Report.heading "Figure 12a: throughput vs funk-log size limit (workloads A, E100)";
  (* Paper sweeps 128KB..4MB around the 2MB default; we sweep the same
     ratios around the scaled default. *)
  let default_limit = base.Config.funk_log_limit_no_munk in
  let limits = List.map (fun r -> default_limit * r / 16) [ 1; 2; 4; 8; 16; 32 ] in
  Report.table
    ~header:
      [ "log limit (KiB)"; "A composite"; "A simple"; "E100 composite"; "E100 simple" ]
    (List.map
       (fun limit ->
         let cfg = { base with Config.funk_log_limit_no_munk = max 1024 limit } in
         let cell mix ops dist = run_one h cfg dist ~items ~mix ~ops in
         [
           Printf.sprintf "%d" (limit / 1024);
           Report.kops (cell Runner.workload_a h.Harness.ops (Workload.Zipf_composite 0.99));
           Report.kops (cell Runner.workload_a h.Harness.ops (Workload.Zipf_simple 0.99));
           Report.kops
             (cell (Runner.workload_e 100) (max 200 (h.Harness.ops / 10))
                (Workload.Zipf_composite 0.99));
           Report.kops
             (cell (Runner.workload_e 100) (max 200 (h.Harness.ops / 10))
                (Workload.Zipf_simple 0.99));
         ])
       limits);
  Report.heading "Figure 12b: throughput vs bloom filter split factor (workload A)";
  Report.table
    ~header:[ "split factor"; "Zipf-composite"; "Zipf-simple" ]
    (List.map
       (fun factor ->
         let cfg = { base with Config.bloom_split_factor = factor } in
         [
           string_of_int factor;
           Report.kops
             (run_one h cfg (Workload.Zipf_composite 0.99) ~items ~mix:Runner.workload_a
                ~ops:h.Harness.ops);
           Report.kops
             (run_one h cfg (Workload.Zipf_simple 0.99) ~items ~mix:Runner.workload_a
                ~ops:h.Harness.ops);
         ])
       [ 1; 2; 4; 8; 16 ])
