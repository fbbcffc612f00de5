(* Sync-durable write scalability at core scale: 100%-put runs at
   1/2/.../N worker domains, four arms per domain count:

     async           no durability — the ceiling
     sync-per-op     Sync, group_commit_max_batch = 1 (one fsync per put)
     sync-gc         Sync, group commit (default batching)
     sync-gc-shard   range-sharded front end (shards = domains), Sync,
                     per-shard committers, shard-affine writers

   The experiment always runs on the disk backend — the sync arms are
   fsync-bound by construction, and only a real fsync has the latency
   that group commit amortizes (concurrent writers share one fsync)
   and sharding overlaps (independent shard logs fsync in parallel, so
   blocked writers release the core to other domains even on a single
   CPU). Per-op sync stays flat as writers are added; the other sync
   arms climb.

   The three unsharded arms draw uniform keys; the sharded arm gives
   each worker its own shard's key range (Range_uniform — the paper's
   spatially-local deployment, which is what a range-sharded front end
   exists to exploit). With affine writers each shard is a solo commit
   stream, so the arm uses per-shard committers: batches never span
   another shard's log, and the independent fsync streams overlap in
   the kernel's own group commit. (A cross-shard shared committer —
   the front end's default — is for uniform routing, where it keeps
   spread-out writers coalescing; measured here it loses to stream
   overlap because one batch then fsyncs every shard's log.) The
   workload is pure puts (the paper's ingestion mix) because
   durability cost only exists on the write path.

     dune exec bench/main.exe -- --threads 8 --ops 6000 --json scaling *)

open Evendb_ycsb

(* Powers of two up to [threads], always ending at [threads] itself:
   8 -> 1/2/4/8, 2 -> 1/2 (the CI smoke), 6 -> 1/2/4/6. *)
let domain_counts threads =
  if threads <= 1 then [ 1 ]
  else begin
    let rec go d acc = if d >= threads then List.rev (threads :: acc) else go (2 * d) (d :: acc) in
    go 1 []
  end

type arm = { arm_name : string; shards : int option; config : Evendb_core.Config.t }

(* Unlike the storage-shaped experiments, this one must isolate the
   commit path: paper-scale thresholds (no splits or rebalances at
   this dataset size) and small values, so per-op cost is the fsync
   protocol and not maintenance — which is exactly what group commit
   and sharding change. *)
let value_bytes = 128

let arms (h : Harness.t) d =
  let open Evendb_core.Config in
  (* Maintenance on the paper's background domain: inline compactions
     on the put path would otherwise serialize whole commit batches
     behind a sort under the chunk's exclusive lock. *)
  let base =
    { default with attr_enabled = h.Harness.attr_on; background_maintenance = true }
  in
  let sync = { base with persistence = Sync } in
  [
    { arm_name = "async"; shards = None; config = { base with persistence = Async } };
    { arm_name = "sync-per-op"; shards = None; config = { sync with group_commit_max_batch = 1 } };
    { arm_name = "sync-gc"; shards = None; config = sync };
    { arm_name = "sync-gc-shard"; shards = Some d; config = sync };
  ]

let make_engine (h : Harness.t) arm =
  let env = Harness.fresh_env h in
  let e =
    match arm.shards with
    | None -> Engine.evendb ~config:arm.config env
    | Some shards -> Engine.evendb_sharded ~config:arm.config ~shared_commit:false ~shards env
  in
  if h.Harness.fault_profile = None then e else Engine.fault_tolerant e

let run (h : Harness.t) =
  let h = { h with Harness.on_disk = true; value_bytes } in
  Harness.note_config_override h;
  Report.heading
    "Scaling: sync-durable put throughput vs worker domains (group commit + sharded front end)";
  let domains = domain_counts h.Harness.threads in
  let items = 4096 * h.Harness.scale in
  let kops = Hashtbl.create 16 in
  List.iter
    (fun d ->
      List.iter
        (fun arm ->
          let phase = Printf.sprintf "%s/d%d" arm.arm_name d in
          let e = make_engine h arm in
          Fun.protect
            ~finally:(fun () ->
              Harness.dump_metrics e ~phase;
              e.Engine.close ())
            (fun () ->
              let dist =
                match arm.shards with
                | None -> Workload.Uniform
                | Some n -> Workload.Range_uniform n
              in
              let shared = Workload.create_shared ~value_bytes dist ~items ~seed:(1000 + d) in
              Runner.load e shared;
              let r = Runner.run e shared Runner.workload_p ~ops:h.Harness.ops ~threads:d in
              Harness.note_result ~phase e r;
              Harness.note_slow ~phase e;
              Hashtbl.replace kops (arm.arm_name, d) r.Runner.kops;
              Printf.printf
                "  d=%d %-14s %9.1f kops  p99 put %8.1f us  write-amp %.2f\n%!" d arm.arm_name
                r.Runner.kops
                (float_of_int (Evendb_util.Histogram.percentile r.Runner.put_hist 99.0) /. 1e3)
                (Engine.write_amplification e)))
        (arms h d))
    domains;
  (* The two headline ratios: what group commit buys over per-op fsync
     at the widest writer count, and how the sharded front end scales
     with domains against its own single-domain run. *)
  let get arm d = try Hashtbl.find kops (arm, d) with Not_found -> 0.0 in
  let dmax = List.fold_left max 1 domains in
  let gc_speedup =
    let per_op = get "sync-per-op" dmax in
    if per_op > 0.0 then get "sync-gc" dmax /. per_op else 0.0
  in
  Printf.printf "\n  group commit vs per-op fsync at %d writers: %.2fx\n" dmax gc_speedup;
  List.iter
    (fun d ->
      let base = get "sync-gc-shard" 1 in
      if d > 1 && base > 0.0 then
        Printf.printf "  sharded sync throughput, %d domains vs 1: %.2fx\n" d
          (get "sync-gc-shard" d /. base))
    domains
