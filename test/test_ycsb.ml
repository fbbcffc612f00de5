(* Workload-suite tests: key encodings, distribution plumbing, the
   trace generator, and a small end-to-end runner exercise on every
   engine. *)

open Evendb_storage
open Evendb_ycsb

let qtest = QCheck_alcotest.to_alcotest

(* ---- Keys ---- *)

let encode_decode =
  QCheck.Test.make ~name:"key encode/decode" ~count:300
    QCheck.(int_bound ((1 lsl 30) - 1))
    (fun v -> Keys.decode (Keys.encode v) = v)

let encoding_order =
  QCheck.Test.make ~name:"key encoding preserves order" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) -> compare a b = compare (Keys.encode a) (Keys.encode b))

let composite_structure () =
  let k = Keys.composite ~prefix:5 ~suffix:0 in
  let low, high = Keys.composite_range ~prefix:5 in
  Alcotest.(check string) "low is suffix 0" k low;
  Alcotest.(check bool) "low <= high" true (String.compare low high <= 0);
  (* Keys of different prefixes never interleave. *)
  let _, high5 = Keys.composite_range ~prefix:5 in
  let low6, _ = Keys.composite_range ~prefix:6 in
  Alcotest.(check bool) "prefix ranges disjoint" true (String.compare high5 low6 < 0)

let key_length () =
  Alcotest.(check int) "14-byte keys (paper)" 14 (String.length (Keys.encode 0));
  Alcotest.(check int) "14-byte max" 14 (String.length (Keys.encode ((1 lsl 32) - 1)))

(* ---- Workload ---- *)

let load_keys_sorted () =
  List.iter
    (fun dist ->
      let sh = Workload.create_shared dist ~items:500 ~seed:1 in
      let keys = Workload.load_keys sh in
      let sorted = List.sort String.compare keys in
      Alcotest.(check bool)
        (Workload.dist_name dist ^ " load keys sorted")
        true (keys = sorted))
    [ Workload.Zipf_simple 0.99; Workload.Zipf_composite 0.99; Workload.Latest ]

let uniform_no_preload () =
  let sh = Workload.create_shared Workload.Uniform ~items:100 ~seed:1 in
  Alcotest.(check int) "uniform: pure ingestion" 0 (List.length (Workload.load_keys sh))

let samples_hit_loaded_keys () =
  List.iter
    (fun dist ->
      let sh = Workload.create_shared dist ~items:400 ~seed:2 in
      let keys = Workload.load_keys sh in
      let set = Hashtbl.create 512 in
      List.iter (fun k -> Hashtbl.replace set k ()) keys;
      let w = Workload.thread sh ~id:0 in
      for _ = 1 to 500 do
        let k = Workload.sample_key w in
        if not (Hashtbl.mem set k) then
          Alcotest.failf "%s sampled non-existent key %s" (Workload.dist_name dist) k
      done)
    [ Workload.Zipf_simple 0.99; Workload.Zipf_composite 0.99; Workload.Latest ]

let inserts_advance_count () =
  let sh = Workload.create_shared (Workload.Zipf_simple 0.99) ~items:10 ~seed:3 in
  let w = Workload.thread sh ~id:0 in
  let k1 = Workload.insert_key w in
  Alcotest.(check int) "count grew" 11 (Workload.current_items sh);
  let k2 = Workload.insert_key w in
  Alcotest.(check bool) "fresh keys differ" true (k1 <> k2)

let values_sized () =
  let sh = Workload.create_shared ~value_bytes:128 (Workload.Zipf_simple 0.99) ~items:10 ~seed:4 in
  let w = Workload.thread sh ~id:0 in
  Alcotest.(check int) "value size" 128 (String.length (Workload.make_value w));
  Alcotest.(check bool) "values vary" true (Workload.make_value w <> Workload.make_value w)

let composite_sampling_skew () =
  (* Composite keys: the hottest prefix must receive far more accesses
     than a random one. *)
  let sh = Workload.create_shared (Workload.Zipf_composite 0.99) ~items:6400 ~seed:5 in
  let w = Workload.thread sh ~id:0 in
  let counts = Hashtbl.create 128 in
  for _ = 1 to 5000 do
    let k = Workload.sample_key w in
    let prefix = String.sub k 0 8 in
    Hashtbl.replace counts prefix (1 + Option.value ~default:0 (Hashtbl.find_opt counts prefix))
  done;
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool) "head prefix dominates" true (max_count > 5000 / 20)

let mix_table_validation () =
  (try
     let e = Engine.evendb (Env.memory ()) in
     ignore (Runner.run e (Workload.create_shared (Workload.Zipf_simple 0.99) ~items:10 ~seed:1)
               [ (Runner.Read, 50) ] ~ops:10 ~threads:1);
     Alcotest.fail "expected mix rejection"
   with Invalid_argument _ -> ())

(* ---- Trace ---- *)

let trace_deterministic () =
  let t1 = Trace.create ~apps:100 ~seed:9 () in
  let t2 = Trace.create ~apps:100 ~seed:9 () in
  for _ = 1 to 100 do
    let k1, _ = Trace.next_event t1 and k2, _ = Trace.next_event t2 in
    Alcotest.(check string) "same stream" k1 k2
  done

let trace_keys_prefix_grouped () =
  let t = Trace.create ~apps:50 ~seed:10 () in
  for _ = 1 to 200 do
    let k, _ = Trace.next_event t in
    let app = Trace.app_of_key k in
    let low, high = Trace.app_range t app in
    if not (String.compare low k <= 0 && String.compare k high <= 0) then
      Alcotest.failf "key %s outside its app range" k
  done

let trace_heavy_tail () =
  let t = Trace.create ~apps:1000 ~theta:1.7 ~seed:11 () in
  let pop = Trace.popularity t ~samples:50_000 in
  let head = List.fold_left (fun acc (r, p) -> if r <= 10 then acc +. p else acc) 0.0 pop in
  Alcotest.(check bool) "top 1% heavy" true (head > 0.5)

(* ---- Runner over all engines ---- *)

let runner_end_to_end () =
  List.iter
    (fun (name, make) ->
      let e : Engine.t = make (Env.memory ()) in
      let sh = Workload.create_shared ~value_bytes:64 (Workload.Zipf_simple 0.99) ~items:200 ~seed:6 in
      Runner.load e sh;
      let r = Runner.run e sh Runner.workload_a ~ops:400 ~threads:2 in
      Alcotest.(check int) (name ^ " all ops ran") 400 r.Runner.ops;
      Alcotest.(check bool) (name ^ " latencies recorded") true
        (Evendb_util.Histogram.count r.Runner.get_hist > 0
        && Evendb_util.Histogram.count r.Runner.put_hist > 0);
      let r = Runner.run e sh (Runner.workload_e 10) ~ops:200 ~threads:1 in
      Alcotest.(check bool) (name ^ " scans recorded") true
        (Evendb_util.Histogram.count r.Runner.scan_hist > 0);
      e.Engine.close ())
    [
      ("evendb", Engine.evendb ?config:None);
      ("lsm", Engine.lsm ?config:None);
      ("flsm", Engine.flsm ?config:None);
    ]

(* ---- A/B verdicts ---- *)

let feq = Alcotest.float 1e-9

let verdict_median () =
  (* (on, off) figures whose ratios are 0.5, 2.0, 1.0 and 4.0. *)
  let odd = Runner.verdict [ (1.0, 2.0); (4.0, 2.0); (3.0, 3.0) ] in
  Alcotest.check feq "odd N: middle ratio" 1.0 odd.Runner.median;
  let even = Runner.verdict [ (1.0, 2.0); (4.0, 2.0); (3.0, 3.0); (8.0, 2.0) ] in
  Alcotest.check feq "even N: mean of the middle two" 1.5 even.Runner.median;
  Alcotest.(check int) "pairs" 4 (List.length even.Runner.ratios);
  (* A median of ratios, not a ratio of medians (or of totals): here
     the on arm is 10% slower in every pair but one, whose huge off
     figure would drag the ratio of totals far below 0.9. *)
  let v = Runner.verdict [ (90.0, 100.0); (9.0, 10.0); (90.0, 100.0); (1.0, 1000.0); (45.0, 50.0) ] in
  Alcotest.check feq "median of per-pair ratios" 0.9 v.Runner.median

let verdict_ties () =
  let v = Runner.verdict [ (2.0, 2.0); (3.0, 2.0); (1.0, 2.0); (5.0, 5.0); (4.0, 2.0) ] in
  Alcotest.(check int) "on wins" 2 v.Runner.on_wins;
  Alcotest.(check int) "off wins" 1 v.Runner.off_wins;
  Alcotest.(check int) "pairs" 5 (List.length v.Runner.ratios)

let ab_pair_alternates () =
  let calls = ref [] in
  let figures =
    List.init 4 (fun pair ->
        Runner.ab_pair ~pair (fun ~on ->
            calls := (pair, on) :: !calls;
            if on then pair else -pair))
  in
  Alcotest.(check (list (pair int bool)))
    "the first arm alternates pair by pair"
    [ (0, true); (0, false); (1, false); (1, true); (2, true); (2, false); (3, false); (3, true) ]
    (List.rev !calls);
  Alcotest.(check (list (pair int int)))
    "results come back as (on, off)"
    [ (0, 0); (1, -1); (2, -2); (3, -3) ]
    figures

let suite =
  [
    ( "keys",
      [
        Alcotest.test_case "composite structure" `Quick composite_structure;
        Alcotest.test_case "key length" `Quick key_length;
        qtest encode_decode;
        qtest encoding_order;
      ] );
    ( "workload",
      [
        Alcotest.test_case "load keys sorted" `Quick load_keys_sorted;
        Alcotest.test_case "uniform has no preload" `Quick uniform_no_preload;
        Alcotest.test_case "samples hit loaded keys" `Quick samples_hit_loaded_keys;
        Alcotest.test_case "inserts advance count" `Quick inserts_advance_count;
        Alcotest.test_case "value sizing" `Quick values_sized;
        Alcotest.test_case "composite skew" `Quick composite_sampling_skew;
        Alcotest.test_case "mix validation" `Quick mix_table_validation;
      ] );
    ( "trace",
      [
        Alcotest.test_case "deterministic" `Quick trace_deterministic;
        Alcotest.test_case "keys grouped by app" `Quick trace_keys_prefix_grouped;
        Alcotest.test_case "heavy tail" `Quick trace_heavy_tail;
      ] );
    ("runner", [ Alcotest.test_case "end to end, all engines" `Quick runner_end_to_end ]);
    ( "ab",
      [
        Alcotest.test_case "verdict median" `Quick verdict_median;
        Alcotest.test_case "verdict ties count for neither" `Quick verdict_ties;
        Alcotest.test_case "pairs alternate the first arm" `Quick ab_pair_alternates;
      ] );
  ]

(* Differential testing: all three engines must agree with each other
   (and a model map) on the same randomized operation sequence —
   catches divergence between the paper system and its baselines that
   would silently invalidate every comparison benchmark. *)
let engines_agree =
  QCheck.Test.make ~name:"evendb/lsm/flsm agree on random ops" ~count:15
    QCheck.(
      list_of_size
        Gen.(int_range 1 300)
        (triple (int_range 0 50) (option (string_of_size (Gen.return 6))) (int_range 0 9)))
    (fun ops ->
      let mk f = f ?config:None (Env.memory ()) in
      let engines = [ mk Engine.evendb; mk Engine.lsm; mk Engine.flsm ] in
      let key i = Printf.sprintf "key%04d" i in
      let module M = Map.Make (String) in
      let model = ref M.empty in
      List.iter
        (fun (k, v, _) ->
          let k = key k in
          (match v with
          | Some v -> List.iter (fun (e : Engine.t) -> e.Engine.put k v) engines
          | None -> List.iter (fun (e : Engine.t) -> e.Engine.delete k) engines);
          model := M.add k v !model)
        ops;
      let gets_agree =
        M.for_all
          (fun k expected ->
            List.for_all (fun (e : Engine.t) -> e.Engine.get k = expected) engines)
          !model
      in
      let expected_scan =
        M.fold (fun k v acc -> match v with Some x -> (k, x) :: acc | None -> acc) !model []
        |> List.sort compare
      in
      let scans_agree =
        List.for_all
          (fun (e : Engine.t) ->
            e.Engine.scan ~low:"" ~high:"zzzz" ~limit:max_int = expected_scan)
          engines
      in
      List.iter (fun (e : Engine.t) -> e.Engine.close ()) engines;
      gets_agree && scans_agree)

let suite =
  suite @ [ ("differential", [ qtest engines_agree ]) ]
