(* Unified read path A/B: the shared block cache + per-funk sorted
   views, on vs. off, over the same spatially-local workload, in
   interleaved pairs ([Harness.ab]); every segment builds its arm
   fresh.

   Phases per segment:
     cold_scan  — every munk evicted first, so scans hit the funk
                  path where the sorted view replaces the per-scan
                  log fold + sort (and the block cache absorbs
                  repeated sstable block reads);
     warm_scan  — same mix again with caches warm;
     point_get  — workload C, guarding against a point-read
                  regression from the new machinery.

   Engines are "EvenDB view=on" / "EvenDB view=off"; CI gates the
   median per-pair cold-scan and point-get ratios. *)

open Evendb_core
open Evendb_ycsb

let pairs = 20

let arm_config h ~on =
  let base = Harness.evendb_config h in
  if on then base
  else { base with Config.sorted_view_enabled = false; block_cache_bytes = 0 }

(* 100% scans of 50 rows: measured phases must not re-warm munks or
   grow logs, so cold stays cold for the whole phase. *)
let scan_mix = [ (Runner.Scan 50, 100) ]

let evict_all db shared =
  List.iteri
    (fun i k -> if i mod 8 = 0 then ignore (Db.evict_munk db k))
    (Workload.load_keys shared)

let run (h : Harness.t) =
  Report.heading "Scan-view A/B: shared block cache + sorted views vs. merge path";
  (* 4x the munk-cache budget: most chunks are munk-less, the regime
     the unified read path exists for. *)
  let items = Harness.items_for h (4 * h.ram_budget) in
  Harness.ab ~pairs ~rebuild:true (fun ~on ->
      let env = Harness.fresh_env h in
      let db = Db.open_ ~config:(arm_config h ~on) env in
      let e = Engine.of_db ~name:(if on then "EvenDB view=on" else "EvenDB view=off") db env in
      let shared =
        Workload.create_shared ~value_bytes:h.value_bytes (Workload.Zipf_composite 0.99) ~items
          ~seed:47
      in
      Runner.load e shared;
      (* Season the funk logs so views span sstable + log, the shape
         cold chunks have in steady state. *)
      ignore
        (Runner.run e shared Runner.workload_a ~ops:(max 1000 (h.ops / 4)) ~threads:h.threads);
      e.Engine.maintain ();
      evict_all db shared;
      let scan_ops = max 500 (h.ops / 8) in
      let scans () = Runner.run e shared scan_mix ~ops:scan_ops ~threads:h.threads in
      ( e,
        [
          ("cold_scan", scans);
          ("warm_scan", scans);
          ("point_get", fun () -> Runner.run e shared Runner.workload_c ~ops:h.ops ~threads:h.threads);
        ] ))
