(* Per-op tail-latency attribution (PR 6): cause-sum invariants, the
   slow-op ring's bound, reset and JSONL export, the fsync-dominance
   acceptance property on a real (disk, sync-durability) store, and the
   exporter hygiene satellites (timer min/max, Prometheus escaping). *)

open Evendb_storage
open Evendb_core
module Obs = Evendb_obs.Obs
module Attr = Evendb_obs.Attr
module Json = Evendb_telemetry.Tiny_json

(* Raising accessors: a malformed export fails at the offending lookup. *)
let req what = function Some v -> v | None -> raise (Json.Bad what)
let get k j = req ("missing key " ^ k) (Json.member k j)
let has k j = Option.is_some (Json.member k j)
let str j = req "not a string" (Json.to_string j)
let num j = req "not a number" (Json.to_float j)

let small_config () = Config.scaled ~factor:64 ()

let busy_ns ns =
  let stop = Obs.now_ns () + ns in
  while Obs.now_ns () < stop do
    ()
  done

(* ------------------------------------------------------------------ *)
(* Invariant: for every op kind, the attributed cause time never
   exceeds the op's wall time (outermost-timed-wins makes nested
   sections free, and sequential sections nest inside the op's own
   clock reads). Checked against a real store driving every hot path. *)

let cause_sums_bounded () =
  let db = Db.open_ ~config:(small_config ()) (Env.memory ()) in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      for i = 1 to 3_000 do
        Db.put db (Printf.sprintf "key%06d" (i mod 997)) (String.make 120 'v')
      done;
      Db.maintain db;
      for i = 1 to 1_000 do
        ignore (Db.get db (Printf.sprintf "key%06d" (i mod 997)))
      done;
      ignore (Db.scan db ~low:"key" ~high:"kez" ~limit:200 ());
      let attr = Db.attr db in
      let j = Json.parse (Attr.to_json attr) in
      let ops = get "ops" j in
      List.iter
        (fun kind ->
          match ops with
          | Json.Obj kvs when List.mem_assoc kind kvs ->
            let o = List.assoc kind kvs in
            let total = int_of_float (num (get "total_ns" o)) in
            let count = int_of_float (num (get "count" o)) in
            let causes =
              match get "causes" o with
              | Json.Obj cs -> cs
              | _ -> Alcotest.fail "causes not an object"
            in
            let attributed =
              List.fold_left (fun a (_, v) -> a + int_of_float (num v)) 0 causes
            in
            List.iter
              (fun (name, v) ->
                if num v < 0.0 then Alcotest.failf "negative cause %s.%s" kind name)
              causes;
            (* One clock-granularity tick of slack per op. *)
            if attributed > total + (count * 1_000) then
              Alcotest.failf "%s: attributed %d ns > op total %d ns over %d ops" kind
                attributed total count
          | _ -> ())
        [ "put"; "get"; "delete"; "scan" ];
      Alcotest.(check bool)
        "puts were counted" true
        (Attr.op_count attr Attr.Put >= 3_000);
      Alcotest.(check bool) "gets were counted" true (Attr.op_count attr Attr.Get >= 1_000);
      (* Global bound across all kinds. *)
      let total_ops =
        List.fold_left (fun a k -> a + Attr.op_total_ns attr k) 0 [ Attr.Put; Attr.Get; Attr.Delete; Attr.Scan ]
      in
      let total_causes =
        List.fold_left (fun a c -> a + Attr.cause_total_ns attr c) 0 Attr.all_causes
      in
      Alcotest.(check bool)
        "causes bounded by op time globally" true
        (total_causes <= total_ops + 5_000_000))

(* ------------------------------------------------------------------ *)
(* The slow-op ring respects its bound under overflow and still counts
   every observation; reset empties it and zeroes the totals. *)

let ring_bound_under_overflow () =
  let obs = Obs.create () in
  let attr = Attr.create ~threshold_ns:1 ~ring:4 obs in
  let tm = Obs.timer obs "op" in
  for _ = 1 to 100 do
    Attr.with_op attr Attr.Put tm (fun () -> Attr.timed Attr.Fsync (fun () -> busy_ns 2_000))
  done;
  let kept = Attr.slow_ops attr in
  Alcotest.(check int) "ring bound" 4 (List.length kept);
  Alcotest.(check int) "every slow op counted" 100 (Attr.slow_seen attr);
  List.iter
    (fun (s : Attr.slow_op) ->
      Alcotest.(check string) "kind" "put" s.Attr.so_kind;
      Alcotest.(check bool) "dur over threshold" true (s.Attr.so_dur_ns >= 1))
    kept;
  Alcotest.(check bool) "fsync charged" true (Attr.cause_total_ns attr Attr.Fsync > 0);
  (* Re-arming the threshold clears the ring but not the seen count's
     monotonicity contract: the ring restarts empty. *)
  Attr.set_threshold_ns attr 1_000_000_000;
  Alcotest.(check int) "ring cleared on re-arm" 0 (List.length (Attr.slow_ops attr));
  Attr.set_threshold_ns attr 1;
  Attr.with_op attr Attr.Put tm (fun () -> busy_ns 2_000);
  Attr.reset attr;
  Alcotest.(check int) "reset clears ring" 0 (List.length (Attr.slow_ops attr));
  Alcotest.(check int) "reset clears seen" 0 (Attr.slow_seen attr);
  Alcotest.(check int) "reset clears op count" 0 (Attr.op_count attr Attr.Put);
  Alcotest.(check int) "reset clears cause totals" 0 (Attr.cause_total_ns attr Attr.Fsync);
  Alcotest.(check int) "threshold survives reset" 1 (Attr.threshold_ns attr)

(* ------------------------------------------------------------------ *)
(* The JSONL export round-trips through a real JSON parser, carries the
   tags, and its per-record arithmetic is self-consistent. *)

let jsonl_roundtrip () =
  let obs = Obs.create () in
  let attr = Attr.create ~threshold_ns:1 ~ring:16 obs in
  let tm = Obs.timer obs "op" in
  for i = 1 to 10 do
    Attr.with_op attr
      (if i mod 2 = 0 then Attr.Get else Attr.Put)
      tm
      (fun () ->
        Attr.timed Attr.Disk_read (fun () -> busy_ns 3_000);
        Attr.timed Attr.Lock_wait (fun () -> busy_ns 1_000))
  done;
  let jsonl = Attr.slow_ops_jsonl ~tags:[ ("engine", "test\"engine"); ("phase", "p1") ] attr in
  let lines = String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one line per retained op" 10 (List.length lines);
  List.iter
    (fun line ->
      let j = Json.parse line in
      Alcotest.(check string) "engine tag survives escaping" "test\"engine"
        (str (get "engine" j));
      Alcotest.(check string) "phase tag" "p1" (str (get "phase" j));
      let dur = int_of_float (num (get "dur_ns" j)) in
      let attributed = int_of_float (num (get "attributed_ns" j)) in
      let causes =
        match get "causes" j with
        | Json.Obj cs -> cs
        | _ -> Alcotest.fail "causes not an object"
      in
      let sum = List.fold_left (fun a (_, v) -> a + int_of_float (num v)) 0 causes in
      Alcotest.(check int) "attributed_ns = sum(causes)" sum attributed;
      Alcotest.(check bool) "attributed <= dur (+jitter)" true (attributed <= dur + 1_000);
      Alcotest.(check bool) "disk_read recorded" true (List.mem_assoc "disk_read" causes);
      Alcotest.(check bool) "kind present" true (has "kind" j);
      Alcotest.(check bool) "tid present" true (has "tid" j);
      Alcotest.(check bool) "threshold present" true (has "threshold_ns" j))
    lines

(* ------------------------------------------------------------------ *)
(* Acceptance property at reduced scale: on a real disk store in Sync
   persistence, the slow tail (the measured run's own top 5%) is >= 80%
   attributed, with fsync the top cause by cumulative time. *)

let fsync_dominates_sync_tail () =
  let dir = Filename.temp_file "evendb_attr" "" in
  Sys.remove dir;
  let config = { (small_config ()) with Config.persistence = Config.Sync } in
  let env = Env.disk dir in
  let db = Db.open_ ~config env in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      List.iter (fun name -> try Env.delete env name with _ -> ()) (Env.list_files env);
      try Unix.rmdir dir with _ -> ())
    (fun () ->
      let attr = Db.attr db in
      let value = String.make 200 'v' in
      let key i = Printf.sprintf "key%06d" (i mod 499) in
      (* Warmup: past the store's first log and file creations. *)
      for i = 1 to 150 do
        Db.put db (key i) value
      done;
      (* Keep every measured put (no more than the ring holds), then
         take the tail from the run's own p95: a threshold calibrated
         on the warmup can sit above every measured put. *)
      let measured = 256 in
      Attr.set_threshold_ns attr 1;
      for i = 1 to measured do
        Db.put db (key i) value
      done;
      let kept = Attr.slow_ops attr in
      Alcotest.(check int) "every measured put kept" measured (List.length kept);
      let durs = Array.of_list (List.map (fun (s : Attr.slow_op) -> s.Attr.so_dur_ns) kept) in
      Array.sort compare durs;
      let p95 = durs.(measured * 95 / 100) in
      let slows = List.filter (fun (s : Attr.slow_op) -> s.Attr.so_dur_ns >= p95) kept in
      let total = List.fold_left (fun a (s : Attr.slow_op) -> a + s.Attr.so_dur_ns) 0 slows in
      let by_cause = Hashtbl.create 8 in
      List.iter
        (fun (s : Attr.slow_op) ->
          List.iter
            (fun (c, ns) ->
              Hashtbl.replace by_cause c (ns + Option.value ~default:0 (Hashtbl.find_opt by_cause c)))
            s.Attr.so_causes)
        slows;
      let attributed = Hashtbl.fold (fun _ ns a -> a + ns) by_cause 0 in
      let top_cause, top_ns =
        Hashtbl.fold (fun c ns ((_, best) as acc) -> if ns > best then (c, ns) else acc)
          by_cause ("-", 0)
      in
      let share = float_of_int attributed /. float_of_int (max 1 total) in
      if share < 0.8 then
        Alcotest.failf "attributed share %.2f < 0.80 (total %dns over %d slow ops)" share total
          (List.length slows);
      if top_cause <> "fsync" then
        Alcotest.failf "top cause %s (%dns), expected fsync (fsync=%dns)" top_cause top_ns
          (Option.value ~default:0 (Hashtbl.find_opt by_cause "fsync")))

(* ------------------------------------------------------------------ *)
(* Satellite: timers report true min/max (not bucket estimates) in the
   snapshot and the JSON export. *)

let timer_min_max_exact () =
  let obs = Obs.create () in
  let tm = Obs.timer obs "lat" in
  List.iter (Obs.Timer.record_ns tm) [ 5_000; 137; 7_777_777 ];
  let _, _, _, mn, mx, _ = Obs.Timer.summary tm in
  Alcotest.(check int) "summary min" 137 mn;
  Alcotest.(check int) "summary max" 7_777_777 mx;
  let j = Json.parse (Obs.to_json obs) in
  let t = get "lat" (get "timers" j) in
  Alcotest.(check int) "json min_ns" 137 (int_of_float (num (get "min_ns" t)));
  Alcotest.(check int) "json max_ns" 7_777_777
    (int_of_float (num (get "max_ns" t)));
  match Obs.snapshot obs with
  | { Obs.metrics; _ } -> (
    match List.assoc "lat" metrics with
    | Obs.Timer tm ->
      Alcotest.(check int) "snapshot t_min_ns" 137 tm.Obs.t_min_ns;
      Alcotest.(check int) "snapshot t_max_ns" 7_777_777 tm.Obs.t_max_ns
    | _ -> Alcotest.fail "lat is not a timer")

(* ------------------------------------------------------------------ *)
(* Satellite: Prometheus exposition carries HELP/TYPE lines and escapes
   hostile label values per the exposition format. *)

let prometheus_hygiene () =
  let obs = Obs.create () in
  Obs.Counter.incr (Obs.counter obs "hits");
  Obs.Timer.record_ns (Obs.timer obs "lat") 42_000;
  (* A span name with every character the exposition format escapes in
     label values: backslash, double quote, newline. *)
  let hostile = "evil\"name\\with\nnewline" in
  Obs.Trace.with_span (Obs.trace obs) ~name:hostile (fun _ -> ());
  let out = Obs.to_prometheus obs in
  let contains sub =
    let n = String.length out and m = String.length sub in
    let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "HELP line for counters" true (contains "# HELP evendb_hits");
  Alcotest.(check bool) "TYPE line for counters" true (contains "# TYPE evendb_hits counter");
  Alcotest.(check bool) "TYPE line for timers" true (contains "# TYPE evendb_lat_ns summary");
  Alcotest.(check bool) "timer min sample" true (contains "evendb_lat_ns_min");
  Alcotest.(check bool) "timer max sample" true (contains "evendb_lat_ns_max");
  Alcotest.(check bool) "span HELP line" true (contains "# HELP evendb_span_count");
  Alcotest.(check bool)
    "hostile label value escaped" true
    (contains "evil\\\"name\\\\with\\nnewline");
  (* The raw (unescaped) forms must not appear inside a label value:
     every quote in the output is either a label delimiter or escaped. *)
  String.iteri
    (fun i c ->
      if c = '\n' && i > 0 && out.[i - 1] = 'h' then
        (* 'h' is the last char of "...with" — a raw newline there would
           mean the label leaked unescaped. *)
        Alcotest.fail "raw newline inside label value")
    out

(* ------------------------------------------------------------------ *)
(* Four domains close ops into per-domain shards of the totals. With a
   1 ns threshold every op also lands in the slow ring, one record per
   op under the ring's lock: the merged totals must equal what the ring
   says, op by op, while a fifth domain reads them throughout. *)

let sharded_totals_match_ring () =
  let obs = Obs.create () in
  let attr = Attr.create ~threshold_ns:1 ~ring:1_024 obs in
  let timer = Obs.timer obs "op" in
  let per_domain = 200 in
  let kinds = [| Attr.Put; Attr.Get; Attr.Scan; Attr.Delete |] in
  let causes = [| Attr.Log_append; Attr.Fsync; Attr.Disk_read |] in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let reads = ref 0 in
        while not (Atomic.get stop) do
          ignore (Json.parse (Attr.to_json attr));
          ignore (Attr.op_count attr Attr.Put, Attr.cause_total_ns attr Attr.Fsync);
          ignore (Obs.snapshot obs);
          incr reads
        done;
        !reads)
  in
  let writers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Attr.with_op attr kinds.((d + i) mod 4) timer (fun () ->
                  Attr.timed causes.(i mod 3) (fun () -> busy_ns 2_000);
                  busy_ns 500)
            done))
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  Alcotest.(check bool) "the reader ran" true (Domain.join reader > 0);
  let slow = Attr.slow_ops attr in
  Alcotest.(check int) "every op kept in the ring" (4 * per_domain) (List.length slow);
  Array.iter
    (fun kind ->
      let name = Attr.kind_name kind in
      let mine = List.filter (fun s -> s.Attr.so_kind = name) slow in
      Alcotest.(check int) (name ^ " count") (List.length mine) (Attr.op_count attr kind);
      Alcotest.(check int)
        (name ^ " total")
        (List.fold_left (fun acc s -> acc + s.Attr.so_dur_ns) 0 mine)
        (Attr.op_total_ns attr kind))
    kinds;
  List.iter
    (fun cause ->
      let name = Attr.cause_name cause in
      Alcotest.(check int)
        (name ^ " total")
        (List.fold_left
           (fun acc s -> acc + Option.value ~default:0 (List.assoc_opt name s.Attr.so_causes))
           0 slow)
        (Attr.cause_total_ns attr cause))
    Attr.all_causes;
  Alcotest.(check int) "timer saw every op" (4 * per_domain) (Obs.Timer.count timer);
  Attr.reset attr;
  Alcotest.(check int) "reset empties every shard" 0 (Attr.op_count attr Attr.Put)

let suite =
  [
    ( "attr",
      [
        Alcotest.test_case "cause sums bounded by op time" `Quick cause_sums_bounded;
        Alcotest.test_case "slow ring bound under overflow" `Quick ring_bound_under_overflow;
        Alcotest.test_case "slow-op JSONL round-trip" `Quick jsonl_roundtrip;
        Alcotest.test_case "fsync dominates sync-put tail (disk)" `Quick fsync_dominates_sync_tail;
        Alcotest.test_case "timer min/max exact" `Quick timer_min_max_exact;
        Alcotest.test_case "sharded totals = slow ring (4 domains)" `Quick sharded_totals_match_ring;
        Alcotest.test_case "prometheus HELP/TYPE + label escaping" `Quick prometheus_hygiene;
      ] );
  ]
