(* Shared block cache (PR 8): the capacity bound must hold at every
   instant (not just eventually), a cached block is verified exactly
   once, LFU keeps hot blocks through cold churn, oversized blocks are
   served uncached, and namespace invalidation is surgical. The same
   properties are re-checked under 4-domain contention. *)

open Evendb_util
open Evendb_cache

let block n len = Bigslice.of_string (String.make len (Char.chr (n land 0xff)))

(* Drive > 2x the capacity of distinct blocks through the cache and
   assert the resident total never exceeds the budget after any
   insert. *)
let capacity_bound () =
  let cap = 64 * 1024 in
  let blk = 4 * 1024 in
  let bc = Block_cache.create ~capacity_bytes:cap () in
  let n = (2 * cap / blk) + 8 in
  for i = 0 to n - 1 do
    ignore (Block_cache.find_or_fill bc ~space:0 ~file:"f" ~index:i ~fill:(fun () -> block i blk));
    let r = Block_cache.resident_bytes bc in
    if r > cap then Alcotest.failf "resident %d > capacity %d after insert %d" r cap i
  done;
  Alcotest.(check bool) "evictions happened" true (Block_cache.evictions bc > 0);
  Alcotest.(check int) "distinct blocks: every access filled" n (Block_cache.fills bc);
  Alcotest.(check int) "distinct blocks: every access missed" n (Block_cache.misses bc)

(* CRC verification lives in the fill closure; a cached block must be
   served without running it again. *)
let fill_once () =
  let bc = Block_cache.create ~capacity_bytes:(1024 * 1024) () in
  let fills = ref 0 in
  let fill () =
    incr fills;
    block 1 512
  in
  for _ = 1 to 10 do
    let s = Block_cache.find_or_fill bc ~space:0 ~file:"f" ~index:0 ~fill in
    Alcotest.(check int) "slice length" 512 (Bigslice.length s)
  done;
  Alcotest.(check int) "verified exactly once" 1 !fills;
  Alcotest.(check int) "fills" 1 (Block_cache.fills bc);
  Alcotest.(check int) "misses" 1 (Block_cache.misses bc);
  Alcotest.(check int) "hits" 9 (Block_cache.hits bc)

(* One shard makes the policy observable: a block accessed 30+ times
   must survive a churn of 40 once-touched blocks through a 4-block
   budget. *)
let lfu_keeps_hot_blocks () =
  let blk = 1024 in
  let bc = Block_cache.create ~shards:1 ~capacity_bytes:(4 * blk) () in
  let fill_count = Array.make 64 0 in
  let get i =
    ignore
      (Block_cache.find_or_fill bc ~space:0 ~file:"f" ~index:i ~fill:(fun () ->
           fill_count.(i) <- fill_count.(i) + 1;
           block i blk))
  in
  for _ = 1 to 32 do
    get 0
  done;
  for i = 1 to 40 do
    get i
  done;
  get 0;
  Alcotest.(check int) "hot block never refilled" 1 fill_count.(0);
  Alcotest.(check bool) "cold churn evicted" true (Block_cache.evictions bc > 0)

(* A block larger than a shard's budget must be served (correctness)
   but never cached (the bound stays strict). *)
let oversized_served_uncached () =
  let bc = Block_cache.create ~shards:1 ~capacity_bytes:1024 () in
  for _ = 1 to 3 do
    let s =
      Block_cache.find_or_fill bc ~space:0 ~file:"big" ~index:0 ~fill:(fun () -> block 7 4096)
    in
    Alcotest.(check int) "served in full" 4096 (Bigslice.length s)
  done;
  Alcotest.(check int) "never resident" 0 (Block_cache.resident_bytes bc);
  Alcotest.(check int) "refilled every time" 3 (Block_cache.fills bc)

(* A fill that raises (corruption, I/O error) must cache nothing and
   leave the cache usable. *)
let failed_fill_caches_nothing () =
  let bc = Block_cache.create ~capacity_bytes:1024 () in
  (try
     ignore
       (Block_cache.find_or_fill bc ~space:0 ~file:"f" ~index:0 ~fill:(fun () ->
            failwith "bad crc"));
     Alcotest.fail "fill exception swallowed"
   with Failure _ -> ());
  Alcotest.(check int) "nothing resident" 0 (Block_cache.resident_bytes bc);
  let fills = ref 0 in
  let s =
    Block_cache.find_or_fill bc ~space:0 ~file:"f" ~index:0 ~fill:(fun () ->
        incr fills;
        block 3 128)
  in
  Alcotest.(check int) "retried fill runs" 1 !fills;
  Alcotest.(check int) "and serves" 128 (Bigslice.length s)

(* invalidate_file drops exactly one (space, file); invalidate_space
   drops one namespace and spares others — the shard/crash contract. *)
let invalidation_is_surgical () =
  let bc = Block_cache.create ~capacity_bytes:(1024 * 1024) () in
  let fills = ref 0 in
  let get space file i =
    ignore
      (Block_cache.find_or_fill bc ~space ~file ~index:i ~fill:(fun () ->
           incr fills;
           block i 256))
  in
  get 0 "a" 0;
  get 0 "a" 1;
  get 0 "b" 0;
  get 1 "a" 0;
  Alcotest.(check int) "four distinct blocks" 4 !fills;
  Block_cache.invalidate_file bc ~space:0 ~file:"a";
  get 0 "a" 0;
  get 0 "b" 0;
  get 1 "a" 0;
  Alcotest.(check int) "only (0, a) was dropped" 5 !fills;
  Block_cache.invalidate_space bc ~space:0;
  get 0 "a" 0;
  get 0 "b" 0;
  get 1 "a" 0;
  Alcotest.(check int) "space 0 dropped, space 1 kept" 7 !fills;
  Block_cache.clear bc;
  Alcotest.(check int) "empty after clear" 0 (Block_cache.resident_bytes bc)

(* Four domains hammer a shared working set larger than the cache.
   Invariants checked on every access from every domain: served slices
   carry the right bytes (a racing fill must never surface a torn or
   foreign block) and the resident total never exceeds capacity. *)
let concurrent_domains () =
  let cap = 32 * 1024 in
  let blk = 1024 in
  let per_domain = 5_000 in
  let bc = Block_cache.create ~capacity_bytes:cap () in
  let violation = Atomic.make false in
  let worker seed () =
    let st = Random.State.make [| 0xb10c; seed |] in
    for _ = 1 to per_domain do
      let i = Random.State.int st 128 in
      let s = Block_cache.find_or_fill bc ~space:0 ~file:"f" ~index:i ~fill:(fun () -> block i blk) in
      if Bigslice.length s <> blk || Bigslice.get s 0 <> Char.chr (i land 0xff) then
        Atomic.set violation true;
      if Block_cache.resident_bytes bc > cap then Atomic.set violation true
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  Alcotest.(check bool) "no content/bound violation under 4 domains" false (Atomic.get violation);
  Alcotest.(check int) "every access is a hit or a miss" (4 * per_domain)
    (Block_cache.hits bc + Block_cache.misses bc);
  Alcotest.(check bool) "resident bound holds at rest" true (Block_cache.resident_bytes bc <= cap)

(* The policy against a naive model: per shard, a list of resident
   blocks, each with a frequency and the tick of its last access; the
   victim is the minimum of (frequency, tick), found by a scan, and
   every 4096 accesses to a shard halve its frequencies. Random
   find/fill/invalidate sequences over one or two small shards, long
   enough to cross several decays, must produce the model's hits, its
   victims in its order and its eviction order at every step, with
   resident bytes within the budget. *)
type m_entry = { mkey : int * string * int; mlen : int; mutable freq : int; mutable tick : int }

type m_shard = {
  mutable entries : m_entry list;
  mutable resident : int;
  mutable accesses : int;
  mutable clock : int;
}

let model_budget = 4096

let model_access sh e =
  sh.clock <- sh.clock + 1;
  e.tick <- sh.clock;
  sh.accesses <- sh.accesses + 1;
  if sh.accesses >= 4096 then begin
    sh.accesses <- 0;
    List.iter (fun e -> e.freq <- e.freq / 2) sh.entries
  end

let by_eviction sh = List.sort (fun a b -> compare (a.freq, a.tick) (b.freq, b.tick)) sh.entries
let model_order sh = List.map (fun e -> e.mkey) (by_eviction sh)

(* Returns [Some victims] on a miss, [None] on a hit. *)
let model_find_or_fill sh key len =
  match List.find_opt (fun e -> e.mkey = key) sh.entries with
  | Some e ->
    e.freq <- e.freq + 1;
    model_access sh e;
    None
  | None when len > model_budget -> Some []
  | None ->
    let victims = ref [] in
    while sh.resident + len > model_budget do
      let v = List.hd (by_eviction sh) in
      sh.entries <- List.filter (fun e -> e != v) sh.entries;
      sh.resident <- sh.resident - v.mlen;
      victims := v.mkey :: !victims
    done;
    let e = { mkey = key; mlen = len; freq = 1; tick = 0 } in
    sh.entries <- e :: sh.entries;
    sh.resident <- sh.resident + len;
    model_access sh e;
    Some (List.rev !victims)

let model_remove sh pred =
  let doomed, kept = List.partition (fun e -> pred e.mkey) sh.entries in
  sh.entries <- kept;
  List.iter (fun e -> sh.resident <- sh.resident - e.mlen) doomed

let files = [| "a"; "b"; "c" |]

let model_sequence (shards, steps, seed) =
  let st = Random.State.make [| seed |] in
  let bc = Block_cache.create ~shards ~capacity_bytes:(shards * model_budget) () in
  let model = Array.init shards (fun _ -> { entries = []; resident = 0; accesses = 0; clock = 0 }) in
  (* 48 blocks of fixed sizes, a few larger than a shard's budget. *)
  let keys = Array.init 48 (fun i -> (i / 24, files.(i / 8 mod 3), i mod 8)) in
  let lens =
    Array.init 48 (fun _ ->
        if Random.State.int st 20 = 0 then model_budget + 1 else 64 + Random.State.int st 960)
  in
  let fail step fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "step %d: %s" step m) fmt in
  for step = 1 to steps do
    let before = Block_cache.Internal.eviction_order bc in
    (match Random.State.int st 100 with
    | 0 ->
      let space = Random.State.int st 2 and file = files.(Random.State.int st 3) in
      Block_cache.invalidate_file bc ~space ~file;
      Array.iter (fun sh -> model_remove sh (fun (s, f, _) -> s = space && f = file)) model
    | 1 ->
      let space = Random.State.int st 2 in
      Block_cache.invalidate_space bc ~space;
      Array.iter (fun sh -> model_remove sh (fun (s, _, _) -> s = space)) model
    | _ ->
      (* Skewed, so that frequencies climb and ties are rare but occur. *)
      let i = min (Random.State.int st 48) (Random.State.int st 48) in
      let ((space, file, index) as key) = keys.(i) in
      let s = Block_cache.Internal.shard bc ~space ~file ~index in
      let filled = ref false in
      ignore
        (Block_cache.find_or_fill bc ~space ~file ~index ~fill:(fun () ->
             filled := true;
             Bigslice.create lens.(i)));
      (match model_find_or_fill model.(s) key lens.(i) with
      | None -> if !filled then fail step "model hit, cache filled"
      | Some victims ->
        if not !filled then fail step "model missed, cache hit";
        let after = (Block_cache.Internal.eviction_order bc).(s) in
        let evicted = List.filter (fun k -> not (List.mem k after)) before.(s) in
        if evicted <> victims then fail step "victims differ from the model's"));
    Array.iteri
      (fun s sh ->
        if (Block_cache.Internal.eviction_order bc).(s) <> model_order sh then
          fail step "shard %d: eviction order differs from the model's" s;
        if sh.resident > model_budget then fail step "shard %d over budget" s)
      model;
    let resident = Array.fold_left (fun acc sh -> acc + sh.resident) 0 model in
    if Block_cache.resident_bytes bc <> resident then
      fail step "resident %d, model %d" (Block_cache.resident_bytes bc) resident
  done;
  true

(* One case runs up to 10000 operations, so the case count is the
   byte-kernel count over 1000. *)
let model_test =
  QCheck.Test.make ~name:"victims and order match an O(n) model"
    ~count:(Test_util.kernel_prop_count ~default:20_000 / 1000)
    QCheck.(triple (int_range 1 2) (int_range 1 10_000) int)
    model_sequence

let suite =
  [
    ( "block_cache",
      [
        Alcotest.test_case "capacity bound holds at every insert" `Quick capacity_bound;
        Alcotest.test_case "a block is verified exactly once" `Quick fill_once;
        Alcotest.test_case "LFU keeps hot blocks through cold churn" `Quick lfu_keeps_hot_blocks;
        Alcotest.test_case "oversized blocks served but not cached" `Quick oversized_served_uncached;
        Alcotest.test_case "a failed fill caches nothing" `Quick failed_fill_caches_nothing;
        Alcotest.test_case "invalidation is per-file / per-space" `Quick invalidation_is_surgical;
        Alcotest.test_case "4-domain contention" `Quick concurrent_domains;
        QCheck_alcotest.to_alcotest model_test;
      ] );
  ]
