(* Row cache and LFU munk-cache policy tests. *)

open Evendb_util
open Evendb_storage
open Evendb_cache
module Chunk = Evendb_core.Chunk
module Funk = Evendb_core.Funk
module Lfu = Evendb_core.Lfu

(* ---- Row cache ---- *)

let basic () =
  let c = Row_cache.create ~capacity_per_table:4 () in
  Alcotest.(check (option string)) "miss" None (Row_cache.find c "k");
  Row_cache.insert c "k" "v" ~version:1 ~counter:0;
  Alcotest.(check (option string)) "hit" (Some "v") (Row_cache.find c "k");
  Alcotest.(check int) "hits" 1 (Row_cache.hits c);
  Alcotest.(check int) "misses" 1 (Row_cache.misses c)

let bulk_eviction () =
  (* 3 tables x capacity 2: inserting 7 fresh keys must evict the
     oldest batch. *)
  let c = Row_cache.create ~tables:3 ~capacity_per_table:2 () in
  for i = 0 to 6 do
    Row_cache.insert c (Printf.sprintf "k%d" i) "v" ~version:i ~counter:0
  done;
  Alcotest.(check (option string)) "oldest evicted" None (Row_cache.find c "k0");
  Alcotest.(check (option string)) "recent kept" (Some "v") (Row_cache.find c "k6")

let promotion_survives_rotation () =
  let c = Row_cache.create ~tables:3 ~capacity_per_table:2 () in
  Row_cache.insert c "hot" "v" ~version:1 ~counter:0;
  (* Keep touching "hot" while churning through other keys. *)
  for i = 0 to 19 do
    Row_cache.insert c (Printf.sprintf "churn%d" i) "x" ~version:1 ~counter:0;
    ignore (Row_cache.find c "hot")
  done;
  Alcotest.(check (option string)) "hot survived churn" (Some "v") (Row_cache.find c "hot")

let update_if_present () =
  let c = Row_cache.create ~capacity_per_table:4 () in
  (* Not present: put must NOT populate (write-heavy pollution). *)
  Row_cache.update_if_present c "k" "v1" ~version:1 ~counter:0;
  Alcotest.(check (option string)) "not populated" None (Row_cache.find c "k");
  Row_cache.insert c "k" "v1" ~version:1 ~counter:0;
  Row_cache.update_if_present c "k" "v2" ~version:2 ~counter:0;
  Alcotest.(check (option string)) "refreshed" (Some "v2") (Row_cache.find c "k")

let same_version_counter_ordering () =
  (* Concurrent same-version puts are ordered by the per-chunk counter:
     a stale (lower-counter) update must not clobber a newer one. *)
  let c = Row_cache.create ~capacity_per_table:4 () in
  Row_cache.insert c "k" "newer" ~version:5 ~counter:9;
  Row_cache.update_if_present c "k" "older" ~version:5 ~counter:3;
  Alcotest.(check (option string)) "stale update ignored" (Some "newer") (Row_cache.find c "k");
  Row_cache.update_if_present c "k" "newest" ~version:5 ~counter:12;
  Alcotest.(check (option string)) "newer update lands" (Some "newest") (Row_cache.find c "k");
  (* Same for the read path's insert. *)
  Row_cache.insert c "k" "ancient" ~version:1 ~counter:0;
  Alcotest.(check (option string)) "stale insert ignored" (Some "newest") (Row_cache.find c "k")

let invalidate () =
  let c = Row_cache.create ~capacity_per_table:4 () in
  Row_cache.insert c "k" "v" ~version:1 ~counter:0;
  Row_cache.invalidate c "k";
  Alcotest.(check (option string)) "gone" None (Row_cache.find c "k")

let invalidate_range () =
  let c = Row_cache.create ~capacity_per_table:8 () in
  List.iter
    (fun k -> Row_cache.insert c k "v" ~version:1 ~counter:0)
    [ "a"; "m1"; "m2"; "z" ];
  Row_cache.invalidate_range c ~low:"m" ~high:(Some "n");
  Alcotest.(check (option string)) "below kept" (Some "v") (Row_cache.find c "a");
  Alcotest.(check (option string)) "in range gone" None (Row_cache.find c "m1");
  Alcotest.(check (option string)) "in range gone 2" None (Row_cache.find c "m2");
  Alcotest.(check (option string)) "above kept" (Some "v") (Row_cache.find c "z");
  Row_cache.invalidate_range c ~low:"y" ~high:None;
  Alcotest.(check (option string)) "unbounded high" None (Row_cache.find c "z")

let length_dedups_shared () =
  let c = Row_cache.create ~tables:3 ~capacity_per_table:4 () in
  Row_cache.insert c "k" "v" ~version:1 ~counter:0;
  (* Force rotation so "k" gets shared into the head table via find. *)
  for i = 0 to 3 do
    Row_cache.insert c (Printf.sprintf "f%d" i) "x" ~version:1 ~counter:0
  done;
  ignore (Row_cache.find c "k");
  Alcotest.(check bool) "length counts keys once" true (Row_cache.length c <= 6)

let clear () =
  let c = Row_cache.create ~capacity_per_table:4 () in
  Row_cache.insert c "k" "v" ~version:1 ~counter:0;
  Row_cache.clear c;
  Alcotest.(check int) "empty" 0 (Row_cache.length c)

(* ---- LFU munk-cache policy ---- *)

(* The policy reads only a chunk's id and access record, so chunks over
   an empty in-memory funk suffice. *)
let chunk id =
  let funk =
    Funk.create_from_iter (Env.memory ()) ~block_bytes:512 ~id ~min_key:"" (Kv_iter.of_list [])
  in
  Chunk.create ~id ~min_key:"" ~funk ~munk:None

(* A split child or merged chunk, built as [Db] builds them. *)
let successor parent id =
  Chunk.create_inheriting ~id ~min_key:(Chunk.min_key parent) ~funk:(Chunk.funk parent)
    ~munk:None ~counter:(Chunk.counter_base parent) ~freq:(Chunk.freq parent)

let ids cs = List.sort compare (List.map Chunk.id cs)

(* Budgets in the unit tests below are in bytes; [chunk_bytes] plays
   [max_chunk_bytes]: the slack, and a full munk's weight. *)
let chunk_bytes = 100

let decision_name = function
  | Lfu.Skip -> "Skip"
  | Lfu.Already_cached -> "Already_cached"
  | Lfu.Evict_other _ -> "Evict_other"
  | Lfu.Admit _ -> "Admit"

let check_within l ~budget what =
  let r = Lfu.resident_bytes l in
  if r > budget + chunk_bytes then
    Alcotest.failf "%s: %d resident bytes, bound %d" what r (budget + chunk_bytes)

let lfu_admission () =
  let budget = 2 * chunk_bytes in
  let l = Lfu.create ~budget ~slack:chunk_bytes () in
  let c1 = chunk 1 and c2 = chunk 2 and c3 = chunk 3 in
  (match Lfu.on_access l c1 ~weight:chunk_bytes with
  | Lfu.Admit [] -> ()
  | _ -> Alcotest.fail "expected Admit []");
  (match Lfu.on_access l c2 ~weight:chunk_bytes with
  | Lfu.Admit [] -> ()
  | _ -> Alcotest.fail "expected Admit [] for second");
  Alcotest.(check bool) "1 cached" true (Lfu.is_cached l c1);
  Alcotest.(check int) "two full munks" budget (Lfu.resident_bytes l);
  (* A one-hit wonder cannot displace an equally warm resident, nor can
     a chunk barely hotter than it: the victim must be under half as
     hot. *)
  (match Lfu.on_access l c3 ~weight:chunk_bytes with
  | Lfu.Skip -> ()
  | d -> Alcotest.failf "expected Skip, got %s" (decision_name d));
  (match Lfu.on_access l c3 ~weight:chunk_bytes with
  | Lfu.Skip -> ()
  | d -> Alcotest.failf "expected Skip at twice the count, got %s" (decision_name d));
  (* Make 3 more than twice as hot as the coldest resident. *)
  (match Lfu.on_access l c3 ~weight:chunk_bytes with
  | Lfu.Admit [ victim ] ->
    Alcotest.(check bool) "victim was resident" true (victim == c1 || victim == c2)
  | d -> Alcotest.failf "expected Admit [victim], got %s" (decision_name d));
  Alcotest.(check int) "still two full munks" budget (Lfu.resident_bytes l);
  check_within l ~budget "after admission";
  (* Half-full munks: the same budget holds four of them. *)
  let l = Lfu.create ~budget ~slack:chunk_bytes () in
  let half = chunk_bytes / 2 in
  let cs = List.init 4 (fun i -> chunk (10 + i)) in
  List.iter
    (fun c ->
      match Lfu.on_access l c ~weight:half with
      | Lfu.Admit [] -> ()
      | d -> Alcotest.failf "half-full chunk %d: expected Admit [], got %s" (Chunk.id c) (decision_name d))
    cs;
  Alcotest.(check int) "four half-full munks" 4 (List.length (Lfu.cached l));
  (* A full chunk hot enough needs two half-full victims. *)
  let big = chunk 20 in
  for _ = 1 to 2 do
    ignore (Lfu.on_access l big ~weight:chunk_bytes)
  done;
  (match Lfu.on_access l big ~weight:chunk_bytes with
  | Lfu.Admit vs -> Alcotest.(check int) "two victims" 2 (List.length vs)
  | d -> Alcotest.failf "expected Admit, got %s" (decision_name d));
  Alcotest.(check int) "budget exactly spent" budget (Lfu.resident_bytes l);
  check_within l ~budget "after a two-victim admission";
  (* Spare bytes: a chunk colder than every munk gets them while a
     chunk's worth would be left over, and not once it would not. *)
  let budget = 4 * chunk_bytes in
  let l = Lfu.create ~budget ~slack:chunk_bytes () in
  let hot = List.init 3 (fun i -> chunk (30 + i)) and cold = chunk 40 in
  List.iter
    (fun c ->
      for _ = 1 to 3 do
        ignore (Lfu.on_access l c ~weight:chunk_bytes)
      done)
    (List.filteri (fun i _ -> i < 2) hot);
  (match Lfu.on_access l cold ~weight:chunk_bytes with
  | Lfu.Admit [] -> ()
  | d -> Alcotest.failf "colder chunk, two chunks spare: expected Admit [], got %s" (decision_name d));
  Lfu.drop_cached l cold;
  for _ = 1 to 3 do
    ignore (Lfu.on_access l (List.nth hot 2) ~weight:chunk_bytes)
  done;
  (match Lfu.on_access l cold ~weight:chunk_bytes with
  | Lfu.Skip -> ()
  | d -> Alcotest.failf "colder chunk, one chunk spare: expected Skip, got %s" (decision_name d));
  Alcotest.(check int) "three munks" (3 * chunk_bytes) (Lfu.resident_bytes l)

let lfu_already_cached () =
  let l = Lfu.create ~budget:(2 * chunk_bytes) ~slack:chunk_bytes () in
  let c1 = chunk 1 in
  ignore (Lfu.on_access l c1 ~weight:chunk_bytes);
  (match Lfu.on_access l c1 ~weight:chunk_bytes with
  | Lfu.Already_cached -> ()
  | _ -> Alcotest.fail "expected Already_cached")

let lfu_hot_resists_eviction () =
  let l = Lfu.create ~budget:chunk_bytes ~slack:chunk_bytes () in
  let c1 = chunk 1 and c2 = chunk 2 in
  for _ = 1 to 10 do
    ignore (Lfu.on_access l c1 ~weight:chunk_bytes)
  done;
  (* A few accesses of 2 cannot displace well-established 1. *)
  (match Lfu.on_access l c2 ~weight:chunk_bytes with
  | Lfu.Skip -> ()
  | _ -> Alcotest.fail "cold challenger should be skipped");
  Alcotest.(check bool) "hot stays" true (Lfu.is_cached l c1)

let lfu_decay () =
  let l = Lfu.create ~budget:chunk_bytes ~slack:chunk_bytes ~decay_every:10 () in
  let c1 = chunk 1 and c2 = chunk 2 in
  for _ = 1 to 8 do
    ignore (Lfu.on_access l c1 ~weight:chunk_bytes)
  done;
  Alcotest.(check int) "freq before decay" 8 (Lfu.frequency l c1);
  (* Cross the decay threshold. *)
  ignore (Lfu.on_access l c2 ~weight:chunk_bytes);
  ignore (Lfu.on_access l c2 ~weight:chunk_bytes);
  Alcotest.(check int) "frequency halved" 4 (Lfu.frequency l c1);
  Alcotest.(check int) "the record keeps the undecayed count" 8 (Chunk.freq c1).Chunk.count

let lfu_transfer () =
  let l = Lfu.create ~budget:(4 * chunk_bytes) ~slack:chunk_bytes () in
  let c10 = chunk 10 in
  for _ = 1 to 5 do
    ignore (Lfu.on_access l c10 ~weight:chunk_bytes)
  done;
  let c20 = successor c10 20 and c21 = successor c10 21 in
  Lfu.transfer l c10 ~into:[ (c20, 60); (c21, 70) ];
  Alcotest.(check bool) "old forgotten" false (Lfu.is_cached l c10);
  Alcotest.(check int) "old frequency zeroed" 0 (Lfu.frequency l c10);
  Alcotest.(check bool) "child cached" true (Lfu.is_cached l c20 && Lfu.is_cached l c21);
  Alcotest.(check int) "children weighed" 130 (Lfu.resident_bytes l);
  Alcotest.(check int) "frequency inherited" 5 (Lfu.frequency l c20)

let lfu_over_capacity_drains () =
  let budget = 2 * chunk_bytes in
  let l = Lfu.create ~budget ~slack:chunk_bytes () in
  let c1 = chunk 1 and c2 = chunk 2 in
  ignore (Lfu.on_access l c1 ~weight:chunk_bytes);
  ignore (Lfu.on_access l c2 ~weight:chunk_bytes);
  ignore (Lfu.on_access l c2 ~weight:chunk_bytes);
  (* Splitting 1 into two children, each as large as 1 was, takes the
     cache to its bound: held, not drained. *)
  let c11 = successor c1 11 and c12 = successor c1 12 in
  Lfu.transfer l c1 ~into:[ (c11, chunk_bytes); (c12, chunk_bytes) ];
  Alcotest.(check (list int)) "over the budget" [ 2; 11; 12 ] (ids (Lfu.cached l));
  (match Lfu.on_access l c2 ~weight:chunk_bytes with
  | Lfu.Already_cached -> ()
  | d -> Alcotest.failf "within budget + slack: expected Already_cached, got %s" (decision_name d));
  (* A rebalance that grows a child past the bound drains it. *)
  Lfu.set_weight l c12 (chunk_bytes + 1);
  Alcotest.(check int) "over the bound" (budget + chunk_bytes + 1) (Lfu.resident_bytes l);
  (match Lfu.on_access l c2 ~weight:chunk_bytes with
  | Lfu.Evict_other [ v ] -> Alcotest.(check bool) "evicts a child" true (v == c11 || v == c12)
  | d -> Alcotest.failf "expected Evict_other [child] to drain overflow, got %s" (decision_name d));
  check_within l ~budget "after the drain";
  Alcotest.(check int) "two munks left" 2 (List.length (Lfu.cached l));
  (* [overflow] drains the same way, without an access. *)
  List.iter (fun c -> Lfu.set_weight l c (2 * chunk_bytes)) (Lfu.cached l);
  Alcotest.(check int) "one victim" 1 (List.length (Lfu.overflow l));
  check_within l ~budget "after overflow";
  Alcotest.(check (list int)) "nothing more to drain" [] (ids (Lfu.overflow l))

let lfu_force_insert_and_drop () =
  let l = Lfu.create ~budget:chunk_bytes ~slack:0 () in
  let c1 = chunk 1 and c2 = chunk 2 in
  Alcotest.(check bool) "first force" true (Lfu.force_insert l c1 ~weight:chunk_bytes = []);
  (match Lfu.force_insert l c2 ~weight:chunk_bytes with
  | [ v ] when v == c1 -> ()
  | _ -> Alcotest.fail "expected eviction of 1");
  Lfu.drop_cached l c2;
  Alcotest.(check bool) "dropped" false (Lfu.is_cached l c2);
  Alcotest.(check int) "nothing resident" 0 (Lfu.resident_bytes l)

(* Differential property: the policy over chunk records makes the same
   decisions as [Lfu_reference], an id-keyed policy with its own
   frequency table, an eager halving sweep, and a resident total summed
   afresh on every question. Both see the same accesses, splits,
   merges, forced inserts, re-weighings, drains and explicit
   evictions, with weights up to one and a half chunks; a small
   [decay_every] makes runs cross many halvings, including accesses
   that trigger one. *)
type lfu_op =
  | Access of int * int  (* chunk, weight estimate *)
  | Access_retired of int  (* a reader still holding a retired chunk *)
  | Split of int * int * int  (* chunk, children's weights *)
  | Merge of int * int
  | Force of int * int
  | Reweigh of int * int
  | Overflow
  | Drop of int

let show_lfu_op = function
  | Access (i, w) -> Printf.sprintf "Access (%d, %d)" i w
  | Access_retired i -> Printf.sprintf "Access_retired %d" i
  | Split (i, w1, w2) -> Printf.sprintf "Split (%d, %d, %d)" i w1 w2
  | Merge (i, w) -> Printf.sprintf "Merge (%d, %d)" i w
  | Force (i, w) -> Printf.sprintf "Force (%d, %d)" i w
  | Reweigh (i, w) -> Printf.sprintf "Reweigh (%d, %d)" i w
  | Overflow -> "Overflow"
  | Drop i -> Printf.sprintf "Drop %d" i

let lfu_op_gen =
  QCheck.Gen.(
    let i = int_bound 63 and w = int_range 1 (3 * chunk_bytes / 2) in
    frequency
      [
        (12, map2 (fun i w -> Access (i, w)) i w);
        (1, map (fun i -> Access_retired i) i);
        (2, map3 (fun i w1 w2 -> Split (i, w1, w2)) i w w);
        (2, map2 (fun i w -> Merge (i, w)) i w);
        (1, map2 (fun i w -> Force (i, w)) i w);
        (2, map2 (fun i w -> Reweigh (i, w)) i w);
        (1, return Overflow);
        (1, map (fun i -> Drop i) i);
      ])

let lfu_matches_reference =
  QCheck.Test.make ~name:"lfu: decisions match the id-keyed reference" ~count:300
    QCheck.(
      quad (int_range 1 5) (int_range 1 12) (int_range 1 6)
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_lfu_op ops))
           Gen.(list_size (int_range 1 300) lfu_op_gen)))
    (fun (capacity, decay_every, initial, ops) ->
      (* The shrinker may step below the generators' ranges. *)
      let capacity = max 1 capacity and decay_every = max 1 decay_every
      and initial = max 1 initial in
      let budget = capacity * chunk_bytes in
      let l = Lfu.create ~budget ~slack:chunk_bytes ~decay_every () in
      let r = Lfu_reference.create ~budget ~slack:chunk_bytes ~decay_every () in
      let live = ref (List.init initial chunk) and retired = ref [] in
      let next_id = ref initial in
      let fresh parent =
        let c = successor parent !next_id in
        incr next_id;
        c
      in
      let nth l i = List.nth l (i mod List.length l) in
      let same what a b = if a <> b then QCheck.Test.fail_reportf "%s differs" what in
      let id_list = List.map Chunk.id in
      let decision = function
        | Lfu.Already_cached -> Lfu_reference.Already_cached
        | Lfu.Admit vs -> Lfu_reference.Admit (id_list vs)
        | Lfu.Evict_other vs -> Lfu_reference.Evict_other (id_list vs)
        | Lfu.Skip -> Lfu_reference.Skip
      in
      (* Every decision that can evict leaves the cache within one
         chunk of its budget (no weight here exceeds that on its own). *)
      let bounded what =
        let b = Lfu.resident_bytes l in
        if b > budget + chunk_bytes then
          QCheck.Test.fail_reportf "%s: %d resident bytes, bound %d" what b (budget + chunk_bytes)
      in
      let access c weight =
        let d = decision (Lfu.on_access l c ~weight) in
        same "decision" d (Lfu_reference.on_access r (Chunk.id c) ~weight);
        if d <> Lfu_reference.Skip then bounded "after an access"
      in
      let step = function
        | Access (i, w) -> access (nth !live i) w
        | Access_retired i -> if !retired <> [] then access (nth !retired i) 0
        | Split (i, w1, w2) ->
          let c = nth !live i in
          let c1 = fresh c in
          let c2 = fresh c in
          Lfu.transfer l c ~into:[ (c1, w1); (c2, w2) ];
          Lfu_reference.transfer r ~old_id:(Chunk.id c)
            ~new_ids:[ (Chunk.id c1, w1); (Chunk.id c2, w2) ];
          live := List.concat_map (fun x -> if x == c then [ c1; c2 ] else [ x ]) !live;
          retired := c :: !retired
        | Merge (i, w) ->
          let n_live = List.length !live in
          if n_live >= 2 then begin
            let j = i mod (n_live - 1) in
            let c = List.nth !live j and n = List.nth !live (j + 1) in
            let cm = fresh c in
            Lfu.remove l c;
            Lfu.remove l n;
            let vs = id_list (Lfu.force_insert l cm ~weight:w) in
            (* The merged chunk inherits [c]'s count; in the model that
               is a transfer. *)
            Lfu_reference.transfer r ~old_id:(Chunk.id c) ~new_ids:[ (Chunk.id cm, w) ];
            Lfu_reference.remove r (Chunk.id n);
            same "merge evictees" vs (Lfu_reference.force_insert r (Chunk.id cm) ~weight:w);
            bounded "after a merge";
            live :=
              List.filter_map
                (fun x -> if x == c then Some cm else if x == n then None else Some x)
                !live;
            retired := c :: n :: !retired
          end
        | Force (i, w) ->
          let c = nth !live i in
          same "force evictees"
            (id_list (Lfu.force_insert l c ~weight:w))
            (Lfu_reference.force_insert r (Chunk.id c) ~weight:w);
          bounded "after a forced insert"
        | Reweigh (i, w) ->
          let c = nth !live i in
          Lfu.set_weight l c w;
          Lfu_reference.set_weight r (Chunk.id c) w
        | Overflow ->
          same "overflow" (id_list (Lfu.overflow l)) (Lfu_reference.overflow r);
          bounded "after a drain"
        | Drop i ->
          let c = nth !live i in
          Lfu.drop_cached l c;
          Lfu_reference.drop_cached r (Chunk.id c)
      in
      List.iter
        (fun op ->
          step op;
          same "cached set, in victim-scan order"
            (List.map Chunk.id (Lfu.cached l))
            (Lfu_reference.cached r);
          same "resident bytes" (Lfu.resident_bytes l) (Lfu_reference.resident_bytes r);
          same "hits" (Lfu.hits l) (Lfu_reference.hits r);
          same "misses" (Lfu.misses l) (Lfu_reference.misses r);
          same "evictions" (Lfu.evictions l) (Lfu_reference.evictions r);
          List.iter
            (fun c ->
              same
                (Printf.sprintf "frequency of chunk %d" (Chunk.id c))
                (Lfu.frequency l c)
                (Lfu_reference.frequency r (Chunk.id c)))
            (!live @ !retired))
        ops;
      true)

let suite =
  [
    ( "row_cache",
      [
        Alcotest.test_case "basic hit/miss" `Quick basic;
        Alcotest.test_case "bulk eviction via table rotation" `Quick bulk_eviction;
        Alcotest.test_case "promotion survives rotation" `Quick promotion_survives_rotation;
        Alcotest.test_case "update only if present" `Quick update_if_present;
        Alcotest.test_case "same-version counter ordering" `Quick same_version_counter_ordering;
        Alcotest.test_case "invalidate" `Quick invalidate;
        Alcotest.test_case "invalidate range" `Quick invalidate_range;
        Alcotest.test_case "length dedups shared entries" `Quick length_dedups_shared;
        Alcotest.test_case "clear" `Quick clear;
      ] );
    ( "lfu",
      [
        Alcotest.test_case "admission and eviction" `Quick lfu_admission;
        Alcotest.test_case "already cached" `Quick lfu_already_cached;
        Alcotest.test_case "hot resists eviction" `Quick lfu_hot_resists_eviction;
        Alcotest.test_case "exponential decay" `Quick lfu_decay;
        Alcotest.test_case "split transfer" `Quick lfu_transfer;
        Alcotest.test_case "over-capacity drains" `Quick lfu_over_capacity_drains;
        Alcotest.test_case "force insert / drop" `Quick lfu_force_insert_and_drop;
        QCheck_alcotest.to_alcotest lfu_matches_reference;
      ] );
  ]
