(* Ablation study (beyond the paper's figures): disable each of
   EvenDB's design components in turn and measure the impact on the
   mixed workload A and the scan-heavy production workload — isolating
   what the munk cache, row cache, partitioned bloom filter and
   in-memory compaction each contribute (§2.2's design-choice list).

   Also reports the synchronous-persistence cost the paper mentions in
   §3.5 ("roughly an order-of-magnitude slower"). *)

open Evendb_core
open Evendb_ycsb

let variants (h : Harness.t) =
  let base = Harness.evendb_config h in
  [
    ("full EvenDB", base);
    ( "no munk cache",
      (* The smallest budget, one full chunk's bytes (a few munks at
         most): nearly every read goes to the row cache or disk. *)
      { base with Config.munk_cache_capacity = 1 } );
    ("no row cache", { base with Config.row_cache_capacity_per_table = 1 });
    ( "unpartitioned bloom",
      (* One filter for the whole log: a hit rescans everything. *)
      { base with Config.bloom_split_factor = 1 } );
    ( "no in-memory compaction",
      (* Flush-happy: the with-munk log limit drops to the munk-less
         one, so compaction hits disk as often as for cold chunks. *)
      { base with Config.funk_log_limit_with_munk = base.Config.funk_log_limit_no_munk } );
  ]

let run_a (h : Harness.t) cfg ~items =
  let e = Engine.evendb ~config:cfg (Evendb_storage.Env.memory ()) in
  Fun.protect
    ~finally:(fun () ->
      Harness.dump_metrics e ~phase:"final";
      e.Engine.close ())
    (fun () ->
      (* Zipf-simple: the distribution where the row cache earns its
         keep (§5.3: "the row cache becomes instrumental as spatial
         locality drops"). *)
      let shared =
        Workload.create_shared ~value_bytes:h.value_bytes (Workload.Zipf_simple 0.99) ~items
          ~seed:41
      in
      Runner.load e shared;
      let r = Runner.run e shared Runner.workload_a ~ops:h.ops ~threads:h.threads in
      (r.Runner.kops, Engine.write_amplification e))

let run_scans (h : Harness.t) cfg ~events =
  let e = Engine.evendb ~config:cfg (Evendb_storage.Env.memory ()) in
  Fun.protect
    ~finally:(fun () ->
      Harness.dump_metrics e ~phase:"final";
      e.Engine.close ())
    (fun () ->
      let trace = Trace.create ~apps:(2000 * h.scale) ~value_bytes:h.value_bytes ~seed:41 () in
      for _ = 1 to events do
        let k, v = Trace.next_event trace in
        e.Engine.put k v
      done;
      let ops = max 200 (h.ops / 20) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to ops do
        let app = Trace.sample_app trace in
        let low, high = Trace.recent_range trace app ~events:50 in
        ignore (e.Engine.scan ~low ~high ~limit:200)
      done;
      float_of_int ops /. (Unix.gettimeofday () -. t0) /. 1000.0)

let run (h : Harness.t) =
  Report.heading "Ablation: contribution of each design component";
  let bytes, _ = List.nth (Harness.dataset_sizes h) 1 in
  let items = Harness.items_for h bytes in
  let events = items in
  Report.table
    ~header:[ "variant"; "A Kops"; "A write-amp"; "trace scans Kops" ]
    (List.map
       (fun (name, cfg) ->
         let a_kops, a_wamp = run_a h cfg ~items in
         let scan_kops = run_scans h cfg ~events in
         [ name; Report.kops a_kops; Report.ratio a_wamp; Report.kops scan_kops ])
       (variants h));
  Report.heading "Persistence mode: async vs sync puts (§3.5, on-disk)";
  let base = Harness.evendb_config h in
  Report.table
    ~header:[ "mode"; "ingest Kops" ]
    (List.map
       (fun (name, cfg) ->
         (* Real files: fsync cost is the whole point here. *)
         let e = Engine.evendb ~config:cfg (Harness.fresh_env { h with Harness.on_disk = true }) in
         Fun.protect
           ~finally:(fun () ->
      Harness.dump_metrics e ~phase:"final";
      e.Engine.close ())
           (fun () ->
             let shared =
               Workload.create_shared ~value_bytes:h.value_bytes Workload.Uniform
                 ~items:(max 256 (items / 4)) ~seed:43
             in
             let w = Workload.thread shared ~id:0 in
             let n = max 200 (h.ops / 10) in
             let t0 = Unix.gettimeofday () in
             for _ = 1 to n do
               e.Engine.put (Workload.insert_key w) (Workload.make_value w)
             done;
             [ name; Report.kops (float_of_int n /. (Unix.gettimeofday () -. t0) /. 1000.0) ]))
       [
         ("async (default)", base);
         ("sync (fsync per put)", { base with Config.persistence = Config.Sync });
       ])
