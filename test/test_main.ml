(* Aggregates every suite into one alcotest binary: `dune runtest`. *)

let () =
  Alcotest.run "evendb"
    (List.concat
       [
         Test_util.suite;
         Test_obs.suite;
         Test_telemetry.suite;
         Test_storage.suite;
         Test_bloom.suite;
         Test_log.suite;
         Test_sstable.suite;
         Test_cache.suite;
         Test_block_cache.suite;
         Test_sorted_view.suite;
         Test_munk.suite;
         Test_config.suite;
         Test_core.suite;
         Test_funk.suite;
         Test_recovery.suite;
         Test_concurrency.suite;
         Test_group_commit.suite;
         Test_shard.suite;
         Test_lsm.suite;
         Test_flsm.suite;
         Test_baseline_format.suite;
         Test_faults.suite;
         Test_scrub.suite;
         Test_snapshot.suite;
         Test_backup.suite;
         Test_repl.suite;
         Test_crash_explorer.suite;
         Test_ycsb.suite;
         Test_attr.suite;
         Test_sampler.suite;
       ])
