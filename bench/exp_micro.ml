(* Bechamel micro-benchmarks: one Test.make per table/figure family,
   exercising that experiment's core operation in isolation (the
   methodology companion to the macro harness). *)

open Bechamel
open Toolkit
open Evendb_ycsb

let mk_evendb (h : Harness.t) ~items dist =
  let e = Harness.make_engine h `Evendb in
  let shared = Workload.create_shared ~value_bytes:h.value_bytes dist ~items ~seed:77 in
  Runner.load e shared;
  (e, Workload.thread shared ~id:1)

let tests (h : Harness.t) =
  let items = Harness.items_for h (List.nth (Harness.dataset_sizes h) 0 |> fst) in
  let dist = Workload.Zipf_composite 0.99 in
  (* Figures 3/6a/7: the put path. *)
  let put_engine, put_w = mk_evendb h ~items dist in
  let put_test =
    Test.make ~name:"fig3/fig6/fig7: evendb put"
      (Staged.stage (fun () ->
           put_engine.Engine.put (Workload.sample_key put_w) (Workload.make_value put_w)))
  in
  (* Figures 6c/8/9/10: the get path. *)
  let get_engine, get_w = mk_evendb h ~items dist in
  let get_test =
    Test.make ~name:"fig6c/fig8/fig9/fig10: evendb get"
      (Staged.stage (fun () -> ignore (get_engine.Engine.get (Workload.sample_key get_w))))
  in
  (* Figures 5/6g-i: the scan path. *)
  let scan_engine, scan_w = mk_evendb h ~items dist in
  let scan_test =
    Test.make ~name:"fig5/fig6e: evendb scan10"
      (Staged.stage (fun () ->
           ignore
             (scan_engine.Engine.scan ~low:(Workload.scan_start scan_w)
                ~high:Workload.key_space_high ~limit:10)))
  in
  (* Table 4: baseline put for the ratio's denominator. *)
  let flsm_engine = Harness.make_engine h `Flsm in
  let flsm_w =
    Workload.thread (Workload.create_shared ~value_bytes:h.value_bytes dist ~items ~seed:78) ~id:2
  in
  let flsm_test =
    Test.make ~name:"table4: flsm put"
      (Staged.stage (fun () ->
           flsm_engine.Engine.put (Workload.sample_key flsm_w) (Workload.make_value flsm_w)))
  in
  (* Figure 12b: partitioned bloom filter query. *)
  let bloom =
    let b =
      Evendb_bloom.Partitioned_bloom.create ~segment_bytes:8192 ~expected_keys_per_segment:256 ()
    in
    for i = 0 to 4095 do
      Evendb_bloom.Partitioned_bloom.add b ~key:(Printf.sprintf "key%06d" i) ~log_offset:(i * 64)
    done;
    b
  in
  let bloom_test =
    Test.make ~name:"fig12b: partitioned bloom query"
      (Staged.stage (fun () ->
           ignore (Evendb_bloom.Partitioned_bloom.segments_maybe_containing bloom "key001234")))
  in
  (* Table 2: log append (the ingestion write path's disk cost). *)
  let env = Evendb_storage.Env.memory () in
  let log = Evendb_log.Log_file.Writer.create env "micro.log" in
  let log_test =
    Test.make ~name:"table2: funk-log append"
      (Staged.stage (fun () ->
           ignore
             (Evendb_log.Log_file.Writer.append log
                { Evendb_util.Kv_iter.key = "key"; value = Some (String.make 128 'x');
                  version = 1; counter = 0 })))
  in
  (* Layers of a block read: CRC-32C of a 4 KiB block, a block-cache
     hit, and a miss (pread, CRC, insert, evict) through a one-shard
     cache of 16 blocks fed ever-new indices. *)
  let kib4 = String.init 4096 (fun i -> Char.chr (i land 255)) in
  let crc_test =
    Test.make ~name:"layer: crc32c 4 KiB"
      (Staged.stage (fun () -> ignore (Evendb_util.Crc32c.string kib4)))
  in
  let hit_test =
    let bc = Evendb_cache.Block_cache.create ~capacity_bytes:(1 lsl 20) () in
    let block = Evendb_util.Bigslice.of_string kib4 in
    Test.make ~name:"layer: block-cache hit"
      (Staged.stage (fun () ->
           ignore
             (Evendb_cache.Block_cache.find_or_fill bc ~space:0 ~file:"f" ~index:0 ~fill:(fun () ->
                  block))))
  in
  let miss_test =
    let blocks = Evendb_storage.Env.memory () in
    let f = Evendb_storage.Env.create blocks "blocks" in
    for _ = 1 to 16 do
      Evendb_storage.Env.append f kib4
    done;
    Evendb_storage.Env.fsync f;
    let bc = Evendb_cache.Block_cache.create ~shards:1 ~capacity_bytes:(16 * 4096) () in
    let next = ref 0 in
    Test.make ~name:"layer: block-cache miss (pread, crc, insert, evict)"
      (Staged.stage (fun () ->
           incr next;
           ignore
             (Evendb_cache.Block_cache.find_or_fill bc ~space:0 ~file:"blocks" ~index:!next
                ~fill:(fun () ->
                  let b =
                    Evendb_storage.Env.pread blocks "blocks" ~off:(!next land 15 * 4096) ~len:4096
                  in
                  ignore (Evendb_util.Crc32c.bigslice b ~pos:0 ~len:4096);
                  b))))
  in
  ( [ put_test; get_test; scan_test; flsm_test; bloom_test; log_test; crc_test; hit_test; miss_test ],
    fun () ->
      put_engine.Engine.close ();
      get_engine.Engine.close ();
      scan_engine.Engine.close ();
      flsm_engine.Engine.close () )

(* Whole-engine companion to the single-op microbenchmarks: one short
   YCSB-A run per engine, so the micro artifact carries comparable
   throughput / write-amp / latency percentiles for all three. *)
let engine_baseline (h : Harness.t) =
  Report.heading "Micro engine baseline: YCSB-A, one short run per engine";
  let items = Harness.items_for h (List.nth (Harness.dataset_sizes h) 0 |> fst) in
  let ops = max 500 (h.ops / 2) in
  List.iter
    (fun which ->
      Harness.with_engine h which (fun e ->
          let shared =
            Workload.create_shared ~value_bytes:h.value_bytes (Workload.Zipf_composite 0.99)
              ~items ~seed:99
          in
          Runner.load e shared;
          let r = Runner.run e shared Runner.workload_a ~ops ~threads:h.threads in
          Harness.note_result ~phase:"ycsb_a" e r;
          let p99_us hist =
            float_of_int (Evendb_util.Histogram.percentile hist 99.0) /. 1e3
          in
          Printf.printf "  %-8s %8.1f kops  write-amp %.2f  p99 put %8.1f us  p99 get %8.1f us\n"
            e.Engine.name r.Runner.kops
            (Engine.write_amplification e)
            (p99_us r.Runner.put_hist) (p99_us r.Runner.get_hist)))
    [ `Evendb; `Lsm; `Flsm ]

(* Sync-durability micro: 100% updates with fsync-per-put, slow
   threshold calibrated to the warmup's put p95 so the slow-op ring
   captures the tail — the canonical demonstration that fsync is the
   dominant p99 cause (DESIGN.md, attribution model). *)
let sync_durability (h : Harness.t) =
  Report.heading "Micro sync-durability: 100% put, fsync per op, attributed tail";
  (* Small working set and values: keep rebalance work rare so the
     run isolates the per-put durability cost rather than maintenance
     interference — fsync should be the dominant tail cause. *)
  let items = 512 in
  let config =
    { (Harness.evendb_config h) with Evendb_core.Config.persistence = Evendb_core.Config.Sync }
  in
  let e = Engine.evendb ~config (Harness.fresh_env h) in
  Fun.protect
    ~finally:(fun () ->
      Harness.dump_metrics e ~phase:"sync_final";
      e.Engine.close ())
    (fun () ->
      let shared =
        Workload.create_shared ~value_bytes:128 (Workload.Zipf_composite 0.99) ~items ~seed:101
      in
      Runner.load e shared;
      let ops = max 500 (h.ops / 2) in
      let warm = Runner.run e shared Runner.workload_p ~ops ~threads:1 in
      let p95 = Evendb_util.Histogram.percentile warm.Runner.put_hist 95.0 in
      (* Re-arm the ring at the measured p95 so "slow" means this
         workload's own tail, not the static config default. *)
      Evendb_obs.Attr.set_threshold_ns (e.Engine.attr ()) (max 1 p95);
      let r = Runner.run e shared Runner.workload_p ~ops ~threads:1 in
      Harness.note_result ~phase:"sync_put" e r;
      Harness.note_slow ~phase:"sync_put" e;
      let attr = e.Engine.attr () in
      let fsync_ns = Evendb_obs.Attr.cause_total_ns attr Evendb_obs.Attr.Fsync in
      let put_ns = Evendb_obs.Attr.op_total_ns attr Evendb_obs.Attr.Put in
      Printf.printf
        "  sync put: %8.1f kops  p95 %8.1f us  p99 %8.1f us  fsync share of put time %.1f%%\n"
        r.Runner.kops
        (float_of_int p95 /. 1e3)
        (float_of_int (Evendb_util.Histogram.percentile r.Runner.put_hist 99.0) /. 1e3)
        (if put_ns > 0 then 100.0 *. float_of_int fsync_ns /. float_of_int put_ns else 0.0))

let run (h : Harness.t) =
  engine_baseline h;
  sync_durability h;
  Report.heading "Micro-benchmarks (Bechamel): core op of each table/figure family";
  let tests, cleanup = tests h in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let estimates =
    List.concat_map
      (fun test ->
        let results =
          Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
        in
        let analyzed =
          Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            (Instance.monotonic_clock) results
        in
        Hashtbl.fold
          (fun name ols acc ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] ->
              Printf.printf "  %-45s %12.0f ns/op\n" name est;
              (name, est) :: acc
            | _ ->
              Printf.printf "  %-45s (no estimate)\n" name;
              acc)
          analyzed [])
      tests
  in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\"ns_per_op\": {";
  List.iteri
    (fun i (name, est) ->
      Printf.bprintf json "%s%t: %.1f" (if i > 0 then ", " else "") (Evendb_obs.Obs.jstr name) est)
    estimates;
  Buffer.add_string json "}}";
  Harness.note_metrics ~engine:"bechamel" ~phase:"micro" (Buffer.contents json);
  cleanup ()
