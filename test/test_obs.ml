(* The Evendb_obs registry: concurrency safety of the instruments,
   reset semantics, exporter shape, and end-to-end wiring into Db
   (maintenance spans, op timers, Read_stats percentiles). *)

open Evendb_obs
open Evendb_core
open Evendb_storage

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- instruments under concurrency ---- *)

let concurrent_bumps () =
  let obs = Obs.create () in
  let c = Obs.counter obs "c" in
  let g = Obs.gauge obs "g" in
  let tm = Obs.timer obs "t" in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c;
              Obs.Gauge.add g 2;
              Obs.Timer.record_ns tm 1_000
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "counter" (4 * per_domain) (Obs.Counter.get c);
  Alcotest.(check int) "gauge" (8 * per_domain) (Obs.Gauge.get g);
  Alcotest.(check int) "timer count" (4 * per_domain) (Obs.Timer.count tm)

(* Run [writers] on four domains while a fifth reads [read] in a loop;
   a read that raises fails the test. *)
let with_concurrent_reads ~writer ~read =
  let stop = Atomic.make false and reads = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          read ();
          Atomic.incr reads
        done)
  in
  let domains = List.init 4 (fun d -> Domain.spawn (fun () -> writer d)) in
  List.iter Domain.join domains;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check bool) "the reader ran" true (Atomic.get reads > 0)

(* Each domain writes its own shard: the merged timer must read exactly
   as one timer fed every sample from one thread. *)
let sharded_timer_matches_model () =
  let obs = Obs.create () in
  let tm = Obs.timer obs "t" in
  let value d i = ((d * 7_919) + (i * 104_729)) mod 5_000_000 in
  let per_domain = 5_000 in
  let last_count = ref 0 in
  with_concurrent_reads
    ~writer:(fun d ->
      for i = 0 to per_domain - 1 do
        Obs.Timer.record_ns tm (value d i)
      done)
    ~read:(fun () ->
      let n, _, _, _, _, _ = Obs.Timer.summary tm in
      if n < !last_count then Alcotest.failf "count went back from %d to %d" !last_count n;
      last_count := n;
      ignore (Obs.to_json obs));
  let model = Obs.timer (Obs.create ()) "model" in
  for d = 0 to 3 do
    for i = 0 to per_domain - 1 do
      Obs.Timer.record_ns model (value d i)
    done
  done;
  let n, mean, ps, mn, mx, buckets = Obs.Timer.summary tm in
  let n', mean', ps', mn', mx', buckets' = Obs.Timer.summary model in
  Alcotest.(check int) "count" n' n;
  Alcotest.(check (float 0.0)) "mean" mean' mean;
  Alcotest.(check (list int)) "percentiles" ps' ps;
  Alcotest.(check int) "min" mn' mn;
  Alcotest.(check int) "max" mx' mx;
  Alcotest.(check (list (pair int int))) "histogram" buckets' buckets;
  Obs.reset obs;
  Alcotest.(check int) "reset empties every shard" 0 (Obs.Timer.count tm)

(* Keys within capacity, so no shard evicts: the merged sketch must
   equal one sketch fed the whole stream, with exact counts. *)
let sharded_topk_matches_model () =
  let sketch = Topk.create ~capacity:64 () in
  let key d i = Printf.sprintf "k%02d" (((d * 13) + (i * i)) mod 40) in
  let per_domain = 4_000 in
  with_concurrent_reads
    ~writer:(fun d ->
      for i = 0 to per_domain - 1 do
        Topk.observe sketch (key d i)
      done)
    ~read:(fun () ->
      let entries = Topk.entries sketch in
      if List.length entries > 64 then Alcotest.fail "more entries than capacity";
      ignore (Topk.total sketch));
  let model = Topk.create ~capacity:64 () in
  for d = 0 to 3 do
    for i = 0 to per_domain - 1 do
      Topk.observe model (key d i)
    done
  done;
  Alcotest.(check int) "total" (Topk.total model) (Topk.total sketch);
  Alcotest.(check (list (triple string int int))) "entries" (Topk.entries model) (Topk.entries sketch);
  List.iter
    (fun (k, lo, hi) -> if lo <> hi then Alcotest.failf "%s: inexact count [%d, %d]" k lo hi)
    (Topk.entries sketch);
  (* 500 skewed keys into shards of 64: every shard evicts, and the
     merged counts must still bracket the truth within N/m. *)
  let sketch = Topk.create ~capacity:64 () in
  let key d i = Printf.sprintf "z%03d" (((i * 7) + d) mod (1 + ((i * 31) mod 500))) in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Topk.observe sketch (key d i)
            done))
  in
  List.iter Domain.join domains;
  let truth = Hashtbl.create 512 in
  for d = 0 to 3 do
    for i = 0 to per_domain - 1 do
      let k = key d i in
      Hashtbl.replace truth k (1 + Option.value ~default:0 (Hashtbl.find_opt truth k))
    done
  done;
  let n = Topk.total sketch in
  Alcotest.(check int) "total with eviction" (4 * per_domain) n;
  let entries = Topk.entries sketch in
  Alcotest.(check bool) "at most capacity entries" true (List.length entries <= 64);
  List.iter
    (fun (k, lo, hi) ->
      let t = Option.value ~default:0 (Hashtbl.find_opt truth k) in
      if not (lo <= t && t <= hi) then Alcotest.failf "%s: true %d outside [%d, %d]" k t lo hi;
      if hi - lo > n / 64 then Alcotest.failf "%s: error %d above N/m = %d" k (hi - lo) (n / 64))
    entries

let registration_idempotent () =
  let obs = Obs.create () in
  let a = Obs.counter obs "same" in
  let b = Obs.counter obs "same" in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "one cell" 2 (Obs.Counter.get a);
  (* Four domains racing to register distinct and shared names must
     not corrupt the registry. *)
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 100 do
              Obs.Counter.incr (Obs.counter obs (Printf.sprintf "n%d" (i mod 7)));
              Obs.Counter.incr (Obs.counter obs (Printf.sprintf "d%d" d))
            done))
  in
  List.iter Domain.join domains;
  let total =
    List.fold_left
      (fun acc (_, v) -> match v with Obs.Counter n -> acc + n | _ -> acc)
      0 (Obs.snapshot obs).Obs.metrics
  in
  Alcotest.(check int) "no lost increments" (2 + (4 * 200)) total

let reset_semantics () =
  let obs = Obs.create () in
  let c = Obs.counter obs "c" in
  let g = Obs.gauge obs "g" in
  let tm = Obs.timer obs "t" in
  let external_cell = ref 42 in
  Obs.probe obs "p" (fun () -> !external_cell);
  Obs.Counter.add c 5;
  Obs.Gauge.set g 7;
  Obs.Timer.record_ns tm 100;
  Obs.Trace.with_span (Obs.trace obs) ~name:"s" (fun _ -> ());
  Obs.reset obs;
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.get c);
  Alcotest.(check int) "gauge zeroed" 0 (Obs.Gauge.get g);
  Alcotest.(check int) "timer zeroed" 0 (Obs.Timer.count tm);
  let stats = Obs.Trace.stats (Obs.trace obs) in
  Alcotest.(check bool)
    "span aggregates cleared" true
    (List.for_all (fun s -> s.Obs.Trace.span_count = 0) stats);
  (* Probes survive a reset: they read external state. *)
  let snap = Obs.snapshot obs in
  Alcotest.(check bool) "probe survives" true
    (List.exists (fun (n, v) -> n = "p" && v = Obs.Gauge 42) snap.Obs.metrics)

let span_attrs_accumulate () =
  let obs = Obs.create () in
  let tr = Obs.trace obs in
  Obs.Trace.with_span tr ~name:"work" ~attrs:[ ("bytes", 10) ] (fun sp ->
      Obs.Trace.add_attr sp "bytes" 5;
      Obs.Trace.add_attr sp "entries" 3);
  Obs.Trace.with_span tr ~name:"work" (fun sp -> Obs.Trace.add_attr sp "bytes" 1);
  match Obs.Trace.stats tr with
  | [ s ] ->
    Alcotest.(check string) "name" "work" s.Obs.Trace.span_name;
    Alcotest.(check int) "count" 2 s.Obs.Trace.span_count;
    Alcotest.(check int) "bytes total" 16 (List.assoc "bytes" s.Obs.Trace.span_attr_totals);
    Alcotest.(check int) "entries total" 3 (List.assoc "entries" s.Obs.Trace.span_attr_totals);
    Alcotest.(check bool) "duration nonneg" true (s.Obs.Trace.span_total_ns >= 0)
  | l -> Alcotest.failf "expected one span stat, got %d" (List.length l)

let exporters_shape () =
  let obs = Obs.create () in
  Obs.Counter.add (Obs.counter obs "ops.total") 3;
  Obs.Timer.record_ns (Obs.timer obs "db.put") 1_000;
  Obs.Trace.declare (Obs.trace obs) "rebalance";
  let json = Obs.to_json obs in
  List.iter
    (fun sub -> Alcotest.(check bool) (sub ^ " in json") true (contains_substring ~sub json))
    [ "\"counters\""; "\"ops.total\":3"; "\"db.put\""; "\"p99_ns\""; "\"rebalance\"" ];
  let prom = Obs.to_prometheus obs in
  List.iter
    (fun sub -> Alcotest.(check bool) (sub ^ " in prom") true (contains_substring ~sub prom))
    [ "evendb_ops_total 3"; "evendb_db_put_ns_count 1"; "evendb_span_count{name=\"rebalance\"} 0" ]

(* ---- wiring into the engines ---- *)

(* Small thresholds so a few hundred puts force munk maintenance. *)
let tiny_config =
  { (Config.scaled ~factor:256 ()) with Config.collect_read_stats = true }

let forced_rebalance_span () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  let find name stats =
    match List.find_opt (fun s -> s.Obs.Trace.span_name = name) stats with
    | Some s -> s
    | None -> Alcotest.failf "span %s not registered" name
  in
  (* Declared spans are visible (zeroed) before any maintenance. *)
  let before = find "munk_rebalance" (Obs.Trace.stats (Obs.trace (Db.obs db))) in
  Alcotest.(check int) "declared zeroed" 0 before.Obs.Trace.span_count;
  for i = 1 to 2_000 do
    Db.put db (Printf.sprintf "key%06d" (i mod 400)) (String.make 64 'v')
  done;
  Db.maintain db;
  let stats = Obs.Trace.stats (Obs.trace (Db.obs db)) in
  let reb = find "munk_rebalance" stats in
  Alcotest.(check bool) "rebalance recorded" true (reb.Obs.Trace.span_count > 0);
  Alcotest.(check bool) "rebalance entries attr" true
    (List.assoc "entries" reb.Obs.Trace.span_attr_totals > 0);
  Alcotest.(check bool) "rebalance duration" true (reb.Obs.Trace.span_total_ns > 0);
  Db.close db

let db_metrics_dump () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 1 to 500 do
    Db.put db (Printf.sprintf "key%06d" i) (String.make 32 'v')
  done;
  for i = 1 to 200 do
    ignore (Db.get db (Printf.sprintf "key%06d" i))
  done;
  ignore (Db.scan db ~limit:50 ~low:"key" ~high:"kez" ());
  Db.checkpoint db;
  let json = Db.metrics_dump db `Json in
  List.iter
    (fun sub -> Alcotest.(check bool) (sub ^ " present") true (contains_substring ~sub json))
    [
      "\"db.put\""; "\"db.get\""; "\"db.scan\""; "\"p50_ns\""; "\"p95_ns\""; "\"p99_ns\"";
      "\"funk.log_appends\""; "\"cache.row.hits\""; "\"cache.lfu.misses\"";
      "\"io.log.bytes_written\""; "\"io.sstable.bytes_written\""; "\"io.meta.bytes_written\"";
      "\"checkpoint\""; "\"munk_rebalance\""; "\"chunk_split\""; "\"recovery\"";
    ];
  (* The op timers actually ran. *)
  Alcotest.(check bool) "put timer counted" true
    (Obs.Timer.count (Obs.timer (Db.obs db) "db.put") = 500);
  Alcotest.(check bool) "get timer counted" true
    (Obs.Timer.count (Obs.timer (Db.obs db) "db.get") = 200);
  Db.close db

let read_stats_fractions () =
  let env = Env.memory () in
  let db = Db.open_ ~config:tiny_config env in
  for i = 1 to 800 do
    Db.put db (Printf.sprintf "key%06d" i) (String.make 32 'v')
  done;
  Db.maintain db;
  for i = 1 to 400 do
    ignore (Db.get db (Printf.sprintf "key%06d" ((i * 7 mod 800) + 1)))
  done;
  ignore (Db.get db "missing-key");
  let s = Db.read_stats db in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 s.Read_stats.fractions in
  Alcotest.(check (float 1e-6)) "fractions sum to 1" 1.0 total;
  (* Detailed mode records percentile latencies per component. *)
  List.iter
    (fun (_, (l : Read_stats.latency)) ->
      Alcotest.(check bool) "p50 <= p95" true (l.Read_stats.p50 <= l.Read_stats.p95);
      Alcotest.(check bool) "p95 <= p99" true (l.Read_stats.p95 <= l.Read_stats.p99))
    s.Read_stats.latencies;
  Db.close db

let baseline_metrics which () =
  match which with
  | `Lsm ->
    let env = Env.memory () in
    let t = Evendb_lsm.Lsm.open_ ~config:(Evendb_lsm.Lsm.Config.scaled ~factor:256 ()) env in
    for i = 1 to 500 do
      Evendb_lsm.Lsm.put t (Printf.sprintf "key%06d" i) (String.make 32 'v')
    done;
    ignore (Evendb_lsm.Lsm.get t "key000001");
    let json = Evendb_lsm.Lsm.metrics_dump t `Json in
    List.iter
      (fun sub -> Alcotest.(check bool) (sub ^ " present") true (contains_substring ~sub json))
      [ "\"db.put\""; "\"wal.appends\""; "\"memtable_flush\""; "\"compaction\"" ];
    Evendb_lsm.Lsm.close t
  | `Flsm ->
    let env = Env.memory () in
    let t = Evendb_flsm.Flsm.open_ ~config:(Evendb_flsm.Flsm.Config.scaled ~factor:256 ()) env in
    for i = 1 to 500 do
      Evendb_flsm.Flsm.put t (Printf.sprintf "key%06d" i) (String.make 32 'v')
    done;
    ignore (Evendb_flsm.Flsm.get t "key000001");
    let json = Evendb_flsm.Flsm.metrics_dump t `Json in
    List.iter
      (fun sub -> Alcotest.(check bool) (sub ^ " present") true (contains_substring ~sub json))
      [ "\"db.put\""; "\"wal.appends\""; "\"fragment_append\""; "\"guard_merge\"" ];
    Evendb_flsm.Flsm.close t

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "concurrent bumps (4 domains)" `Quick concurrent_bumps;
        Alcotest.test_case "sharded timer = one-thread model" `Quick sharded_timer_matches_model;
        Alcotest.test_case "sharded top-k = one-thread model" `Quick sharded_topk_matches_model;
        Alcotest.test_case "idempotent racy registration" `Quick registration_idempotent;
        Alcotest.test_case "reset semantics" `Quick reset_semantics;
        Alcotest.test_case "span attrs accumulate" `Quick span_attrs_accumulate;
        Alcotest.test_case "exporter shape" `Quick exporters_shape;
      ] );
    ( "obs-wiring",
      [
        Alcotest.test_case "forced munk rebalance span" `Quick forced_rebalance_span;
        Alcotest.test_case "db metrics dump" `Quick db_metrics_dump;
        Alcotest.test_case "read-stats fractions and percentiles" `Quick read_stats_fractions;
        Alcotest.test_case "lsm metrics dump" `Quick (baseline_metrics `Lsm);
        Alcotest.test_case "flsm metrics dump" `Quick (baseline_metrics `Flsm);
      ] );
  ]
