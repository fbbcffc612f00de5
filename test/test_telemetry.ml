(* Spatial-locality telemetry (PR 5): per-chunk heat, the hot-prefix
   Space-Saving sketch, the Chrome trace exporter, and their wiring through the engine paths. *)

open Evendb_util
open Evendb_storage
open Evendb_core
module Obs = Evendb_obs.Obs
module Topk = Evendb_obs.Topk

(* Exporter output is checked with the telemetry clients' own reader;
   these accessors raise on a missing key or a wrongly-typed value so a
   malformed export fails at the offending lookup. *)
module Json = struct
  include Evendb_telemetry.Tiny_json

  let req what = function Some v -> v | None -> raise (Bad what)
  let get k j = req ("missing key " ^ k) (member k j)
  let mem k j = Option.is_some (member k j)
  let to_list j = req "not an array" (to_list j)
  let to_str j = req "not a string" (to_string j)
  let to_num j = req "not a number" (to_float j)
end

(* ------------------------------------------------------------------ *)
(* Space-Saving sketch *)

let topk_zipf_bounds () =
  let n_keys = 500 and samples = 30_000 and capacity = 64 in
  let z = Zipf.create ~theta:0.99 n_keys in
  let rng = Rng.create 42 in
  let sketch = Topk.create ~capacity () in
  let truth = Hashtbl.create 512 in
  for _ = 1 to samples do
    let k = Printf.sprintf "key%04d" (Zipf.next z rng) in
    Hashtbl.replace truth k (1 + (try Hashtbl.find truth k with Not_found -> 0));
    Topk.observe sketch k
  done;
  Alcotest.(check int) "total counts every observation" samples (Topk.total sketch);
  let entries = Topk.entries sketch in
  Alcotest.(check bool) "at most capacity entries" true (List.length entries <= capacity);
  let bound = samples / capacity in
  let rec check_sorted = function
    | (_, _, hi1) :: ((_, _, hi2) :: _ as rest) ->
      Alcotest.(check bool) "entries sorted by count_hi desc" true (hi1 >= hi2);
      check_sorted rest
    | _ -> ()
  in
  check_sorted entries;
  List.iter
    (fun (k, lo, hi) ->
      let t = try Hashtbl.find truth k with Not_found -> 0 in
      if not (lo <= t && t <= hi) then
        Alcotest.failf "true count of %s outside bounds: lo=%d true=%d hi=%d" k lo t hi;
      if hi - lo > bound then
        Alcotest.failf "error width of %s exceeds N/m: %d > %d" k (hi - lo) bound)
    entries;
  (* Every guaranteed heavy hitter (true count > N/m) must be present. *)
  Hashtbl.iter
    (fun k t ->
      if t > bound && not (List.exists (fun (k', _, _) -> k' = k) entries) then
        Alcotest.failf "heavy hitter %s (count %d > %d) missing from sketch" k t bound)
    truth;
  Topk.reset sketch;
  Alcotest.(check int) "reset zeroes the total" 0 (Topk.total sketch);
  Alcotest.(check int) "reset empties the table" 0 (List.length (Topk.entries sketch))

(* ------------------------------------------------------------------ *)
(* Chrome trace export *)

let chrome_trace_well_formed () =
  let obs = Obs.create () in
  let tr = Obs.trace obs in
  Obs.Trace.declare tr "alpha";
  for i = 1 to 5 do
    Obs.Trace.with_span tr ~name:"alpha" ~attrs:[ ("bytes", i * 10) ] (fun _ -> ())
  done;
  (* A second thread gives the export a second tid to name. *)
  let th = Thread.create (fun () -> Obs.Trace.with_span tr ~name:"beta" (fun _ -> ())) () in
  Thread.join th;
  let doc = Json.parse (Obs.to_chrome_trace ~process_name:"testproc" obs) in
  Alcotest.(check string)
    "displayTimeUnit" "ms"
    (Json.to_str (Json.get "displayTimeUnit" doc));
  let events = Json.to_list (Json.get "traceEvents" doc) in
  let phase e = Json.to_str (Json.get "ph" e) in
  let metas = List.filter (fun e -> phase e = "M") events in
  let xs = List.filter (fun e -> phase e = "X") events in
  Alcotest.(check int) "all events are M or X" (List.length events)
    (List.length metas + List.length xs);
  Alcotest.(check int) "one X event per span" 6 (List.length xs);
  (* One process_name metadata record carrying the given name. *)
  let process_names =
    List.filter (fun e -> Json.to_str (Json.get "name" e) = "process_name") metas
  in
  (match process_names with
  | [ e ] ->
    Alcotest.(check string)
      "process name from argument" "testproc"
      (Json.to_str (Json.get "name" (Json.get "args" e)))
  | l -> Alcotest.failf "expected exactly one process_name event, got %d" (List.length l));
  (* Every X event's pid/tid pair must be introduced by a thread_name
     metadata event, and timestamps must be sane. *)
  let pid_tid e =
    (int_of_float (Json.to_num (Json.get "pid" e)), int_of_float (Json.to_num (Json.get "tid" e)))
  in
  let named_threads =
    List.filter_map
      (fun e -> if Json.to_str (Json.get "name" e) = "thread_name" then Some (pid_tid e) else None)
      metas
  in
  List.iter
    (fun e ->
      if not (List.mem (pid_tid e) named_threads) then
        Alcotest.failf "X event %s has unnamed pid/tid" (Json.to_str (Json.get "name" e));
      Alcotest.(check bool) "ts positive" true (Json.to_num (Json.get "ts" e) > 0.0);
      Alcotest.(check bool) "dur non-negative" true (Json.to_num (Json.get "dur" e) >= 0.0))
    xs;
  let tids = List.sort_uniq compare (List.map snd (List.map pid_tid xs)) in
  Alcotest.(check int) "two distinct thread ids" 2 (List.length tids);
  (* Span attributes surface under args. *)
  let alpha = List.filter (fun e -> Json.to_str (Json.get "name" e) = "alpha") xs in
  Alcotest.(check int) "alpha spans exported" 5 (List.length alpha);
  List.iter
    (fun e ->
      Alcotest.(check bool) "alpha carries bytes attr" true
        (Json.mem "bytes" (Json.get "args" e)))
    alpha

(* ------------------------------------------------------------------ *)
(* Timer buckets in snapshots and JSON export *)

let timer_buckets_exported () =
  let obs = Obs.create () in
  let tm = Obs.timer obs "op" in
  List.iter (Obs.Timer.record_ns tm) [ 100; 250_000; 5_000_000; 5_100_000 ];
  let snap = Obs.snapshot obs in
  (match List.assoc_opt "op" snap.Obs.metrics with
  | Some (Obs.Timer s) ->
    Alcotest.(check int) "t_count" 4 s.Obs.t_count;
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 s.Obs.t_buckets in
    Alcotest.(check int) "bucket counts sum to t_count" 4 total;
    let rec ascending = function
      | (ub1, _) :: ((ub2, _) :: _ as rest) ->
        Alcotest.(check bool) "bucket bounds ascending" true (ub1 < ub2);
        ascending rest
      | _ -> ()
    in
    ascending s.Obs.t_buckets
  | _ -> Alcotest.fail "timer missing from snapshot");
  let doc = Json.parse (Obs.to_json obs) in
  let op = Json.get "op" (Json.get "timers" doc) in
  let buckets = Json.to_list (Json.get "buckets" op) in
  let total =
    List.fold_left
      (fun acc b ->
        match Json.to_list b with
        | [ _ub; c ] -> acc + int_of_float (Json.to_num c)
        | _ -> Alcotest.fail "bucket entry is not a pair")
      0 buckets
  in
  Alcotest.(check int) "JSON bucket counts sum to count" 4 total;
  (* The Prometheus exporter keeps its quantile-only shape. *)
  let prom = Obs.to_prometheus obs in
  Alcotest.(check bool) "prometheus has quantiles" true
    (String.length prom > 0
    &&
    let has_sub sub =
      let n = String.length sub and m = String.length prom in
      let rec at i = i + n <= m && (String.sub prom i n = sub || at (i + 1)) in
      at 0
    in
    has_sub "quantile" && not (has_sub "buckets"))

(* ------------------------------------------------------------------ *)
(* Monotonic clock *)

let monotonic_clock () =
  let a = Obs.now_ns () in
  let b = Obs.now_ns () in
  Alcotest.(check bool) "now_ns never goes back" true (b >= a);
  Alcotest.(check int)
    "wall mapping preserves intervals" (b - a)
    (Obs.to_wall_ns b - Obs.to_wall_ns a);
  let wall = Obs.to_wall_ns b in
  Alcotest.(check bool)
    "wall time is a plausible epoch" true
    (wall > 1_500_000_000 * 1_000_000_000 && wall < 4_000_000_000 * 1_000_000_000)

(* ------------------------------------------------------------------ *)
(* Per-chunk wiring through the engine *)

let small_config =
  {
    Config.default with
    max_chunk_bytes = 8 * 1024;
    munk_rebalance_bytes = 6 * 1024;
    munk_rebalance_appended = 64;
    funk_log_limit_no_munk = 2 * 1024;
    funk_log_limit_with_munk = 8 * 1024;
    munk_cache_capacity = 4;
  }

let key_of i = Printf.sprintf "k%05d" i

let chunk_wiring () =
  let db = Db.open_ ~config:small_config (Env.memory ()) in
  for i = 0 to 599 do
    Db.put db (key_of i) (String.make 64 'v')
  done;
  Db.maintain db;
  Alcotest.(check bool) "workload split the keyspace" true (Db.chunk_count db > 1);
  let residue = Db.metrics_residue db in
  let has suffix = List.exists (fun nm -> String.ends_with ~suffix nm) residue in
  Alcotest.(check bool) "puts recorded per chunk" true (has ".puts");
  Alcotest.(check bool) "splits recorded" true (has ".splits");
  Alcotest.(check bool) "rebalances recorded" true (has ".rebalances");
  (* Heat follows the key range across splits: live chunks carry it. *)
  let live_heat =
    List.fold_left (fun acc c -> acc + c.Db.cs_stat.Chunk.st_heat) 0 (Db.chunk_stats db)
  in
  Alcotest.(check bool) "live chunks carry transferred heat" true (live_heat > 0);
  (* Quiescent structure: counters must now balance exactly. *)
  Db.reset_metrics db;
  Alcotest.(check (list string)) "reset leaves no residue" [] (Db.metrics_residue db);
  for i = 0 to 299 do
    ignore (Db.get db (key_of (i * 2)))
  done;
  ignore (Db.scan db ~low:"" ~high:"\xff" ());
  let cs = Db.chunk_stats db in
  Alcotest.(check int) "one stat row per live chunk" (Db.chunk_count db) (List.length cs);
  let sum f = List.fold_left (fun acc c -> acc + f c.Db.cs_stat) 0 cs in
  Alcotest.(check int) "every get counted once" 300 (sum (fun s -> s.Chunk.st_gets));
  Alcotest.(check int)
    "get component split partitions the gets" 300
    (sum (fun s -> s.Chunk.st_munk_hits + s.Chunk.st_row_hits + s.Chunk.st_funk_reads));
  Alcotest.(check bool) "scan visits recorded" true (sum (fun s -> s.Chunk.st_scans) >= 1);
  let _, total = Db.hot_prefixes db in
  Alcotest.(check int) "sketch fed once per op" 300 total;
  Db.close db

(* Heat is the munk-cache policy's frequency, so it moves with the key
   range the way the policy's count does: split children carry the
   parent's, a merged chunk its left half's. Thresholds this high keep
   puts from rebalancing; [Db.maintain] then splits and merges with no
   access in between. *)
let heat_inherited_split_merge () =
  let config =
    {
      Config.default with
      max_chunk_bytes = 4096;
      munk_rebalance_bytes = 1 lsl 20;
      munk_rebalance_appended = 1 lsl 20;
      funk_log_limit_with_munk = 1 lsl 20;
    }
  in
  let db = Db.open_ ~config (Env.memory ()) in
  let heats () =
    List.map (fun c -> (c.Db.cs_min_key, c.Db.cs_stat.Chunk.st_heat)) (Db.chunk_stats db)
  in
  for i = 0 to 99 do
    Db.put db (key_of i) (String.make 64 'v')
  done;
  for i = 0 to 399 do
    ignore (Db.get db (key_of (i mod 100)))
  done;
  let parent =
    match heats () with
    | [ (_, h) ] -> h
    | l -> Alcotest.failf "expected one chunk before maintenance, got %d" (List.length l)
  in
  Alcotest.(check bool) "accesses heated the chunk" true (parent > 0);
  Db.maintain db;
  let children = heats () in
  Alcotest.(check int) "maintenance split the chunk" 2 (List.length children);
  List.iter
    (fun (_, h) -> Alcotest.(check int) "split child carries the parent's heat" parent h)
    children;
  (* Heat the right half more, then empty both halves so they merge. *)
  let right_min = fst (List.nth children 1) in
  let right = List.filter (fun i -> key_of i >= right_min) (List.init 100 Fun.id) in
  for _ = 1 to 4 do
    List.iter (fun i -> ignore (Db.get db (key_of i))) right
  done;
  for i = 0 to 99 do
    Db.delete db (key_of i)
  done;
  let left_heat, right_heat =
    match heats () with
    | [ (_, l); (_, r) ] -> (l, r)
    | l -> Alcotest.failf "expected two chunks before the merge, got %d" (List.length l)
  in
  Alcotest.(check bool) "halves differ in heat" true (left_heat <> right_heat);
  Db.maintain db;
  Alcotest.(check (list (pair string int)))
    "merged chunk carries the left half's heat" [ ("", left_heat) ] (heats ());
  Db.close db

(* [reset_metrics] zeroes the op counters but not heat: heat is policy
   state, like munk residency. *)
let reset_keeps_heat () =
  let db = Db.open_ ~config:small_config (Env.memory ()) in
  for i = 0 to 599 do
    Db.put db (key_of i) (String.make 64 'v')
  done;
  Db.maintain db;
  for i = 0 to 299 do
    ignore (Db.get db (key_of (i * 2)))
  done;
  let heat_of cs = List.map (fun c -> (c.Db.cs_id, c.Db.cs_stat.Chunk.st_heat)) cs in
  let before = heat_of (Db.chunk_stats db) in
  Alcotest.(check bool) "some chunk is hot" true (List.exists (fun (_, h) -> h > 0) before);
  Db.reset_metrics db;
  Alcotest.(check (list string)) "every counter zeroed" [] (Db.metrics_residue db);
  Alcotest.(check (list (pair int int))) "heat unchanged" before (heat_of (Db.chunk_stats db));
  Db.close db

(* On a Zipf-composite read trace over more chunks than munks, the
   chunk that heat ranks first holds a munk: heat is the count the
   policy admits and evicts by. *)
let hottest_chunk_resident () =
  let open Evendb_ycsb in
  let db = Db.open_ ~config:small_config (Env.memory ()) in
  let sh = Workload.create_shared ~value_bytes:64 (Workload.Zipf_composite 0.99) ~items:2000 ~seed:3 in
  let w = Workload.thread sh ~id:0 in
  List.iter (fun k -> Db.put db k "v") (Workload.load_keys sh);
  Db.maintain db;
  Db.reset_metrics db;
  for _ = 1 to 20_000 do
    ignore (Db.get db (Workload.sample_key w))
  done;
  let cs = Db.chunk_stats db in
  Alcotest.(check bool)
    "more chunks than munks" true
    (List.length cs > small_config.Config.munk_cache_capacity);
  let top = List.fold_left (fun acc c -> max acc c.Db.cs_stat.Chunk.st_heat) 0 cs in
  let hottest = List.filter (fun c -> c.Db.cs_stat.Chunk.st_heat = top) cs in
  Alcotest.(check bool) "the hottest chunk was read" true
    (List.for_all (fun c -> c.Db.cs_stat.Chunk.st_gets > 0) hottest);
  Alcotest.(check bool) "a hottest chunk is munk-resident" true
    (List.exists (fun c -> c.Db.cs_munk_resident) hottest);
  Db.close db

(* Library-level mirror of the `evendb heat` acceptance check: on the
   default Zipf trace the sketch's top-1%-of-prefixes share must land
   within 5 points of the generator's analytic share. *)
let prefix_share_accuracy () =
  let open Evendb_ycsb in
  let config = { Config.default with topk_capacity = 4096 } in
  let db = Db.open_ ~config (Env.memory ()) in
  let sh = Workload.create_shared ~value_bytes:64 (Workload.Zipf_simple 0.99) ~items:4000 ~seed:5 in
  let w = Workload.thread sh ~id:0 in
  List.iter (fun k -> Db.put db k "v") (Workload.load_keys sh);
  Db.maintain db;
  Db.reset_metrics db;
  let ops = 20_000 in
  for _ = 1 to ops do
    ignore (Db.get db (Workload.sample_key w))
  done;
  let prefix_len = Db.hot_prefix_len in
  let expected = Workload.prefix_weights sh ~prefix_len in
  let n1 = max 1 (List.length expected / 100) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let expected_share = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (take n1 expected) in
  let entries, total = Db.hot_prefixes db in
  Alcotest.(check int) "sketch saw every read" ops total;
  let observed_share =
    List.fold_left (fun acc (_, _, hi) -> acc +. float_of_int hi) 0.0 (take n1 entries)
    /. float_of_int total
  in
  if abs_float (observed_share -. expected_share) > 0.05 then
    Alcotest.failf "top-1%% share off by more than 5 points: observed %.4f expected %.4f"
      observed_share expected_share;
  Db.close db

(* The Db-level trace export inherits well-formedness; check it carries
   real maintenance spans. *)
let db_dump_trace () =
  let db = Db.open_ ~config:small_config (Env.memory ()) in
  for i = 0 to 399 do
    Db.put db (key_of i) (String.make 64 'v')
  done;
  Db.maintain db;
  let doc = Json.parse (Db.dump_trace db) in
  let events = Json.to_list (Json.get "traceEvents" doc) in
  let span_names =
    List.filter_map
      (fun e ->
        if Json.to_str (Json.get "ph" e) = "X" then Some (Json.to_str (Json.get "name" e))
        else None)
      events
  in
  Alcotest.(check bool) "maintenance spans exported" true (span_names <> []);
  Alcotest.(check bool) "a rebalance or split span appears" true
    (List.exists
       (fun n -> n = "munk_rebalance" || n = "chunk_split" || n = "cold_funk_rebalance")
       span_names);
  Db.close db

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "heat inherited on split/merge" `Quick heat_inherited_split_merge;
        Alcotest.test_case "heat survives reset_metrics" `Quick reset_keeps_heat;
        Alcotest.test_case "hottest chunk is munk-resident" `Quick hottest_chunk_resident;
        Alcotest.test_case "space-saving bounds on zipf stream" `Quick topk_zipf_bounds;
        Alcotest.test_case "chrome trace well-formed" `Quick chrome_trace_well_formed;
        Alcotest.test_case "timer buckets exported" `Quick timer_buckets_exported;
        Alcotest.test_case "monotonic clock" `Quick monotonic_clock;
        Alcotest.test_case "per-chunk wiring" `Quick chunk_wiring;
        Alcotest.test_case "prefix share accuracy" `Quick prefix_share_accuracy;
        Alcotest.test_case "db trace export" `Quick db_dump_trace;
      ] );
  ]
