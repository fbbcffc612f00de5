(* Sorted views: the persistent merge order of a funk must be
   byte-equivalent to the live merge path, from every seek position,
   across uncovered log suffixes, staleness, and corruption.

   - unit level: [Sorted_view.cursor] over sst+log files equals the
     reference merge (stably sorted log wins ties) on arbitrary ranges;
   - validation: [load] rejects corrupt, truncated-log and
     wrong-sstable views, and a mid-walk mismatch raises [Stale];
   - store level: a Db with views enabled returns exactly the scans of
     a Db with views disabled over the same randomized workload, and
     falls back transparently when the sidecar is corrupted;
   - scrubber: a corrupt view is a finding, repair regenerates it. *)

open Evendb_util
open Evendb_storage
open Evendb_sstable
open Evendb_log
open Evendb_core
module K = Kv_iter

let mk ?(c = 0) key version value = { K.key; value; version; counter = c }

let pp_entry fmt (e : K.entry) =
  Format.fprintf fmt "{%s v%d c%d %s}" e.key e.version e.counter
    (match e.value with Some v -> v | None -> "<tomb>")

let entry_t = Alcotest.testable pp_entry ( = )

let build_sst ?block_size env name entries =
  let sorted = List.sort K.compare_entries entries in
  let b = Sstable.Builder.create env ?block_size ~name ~min_key:"" () in
  List.iter (Sstable.Builder.add b) sorted;
  Sstable.Builder.finish b;
  (Sstable.Reader.open_ env name, sorted)

let write_log env name entries =
  let w = Log_file.Writer.create env name in
  List.iter (fun e -> ignore (Log_file.Writer.append w e)) entries;
  Log_file.Writer.fsync w;
  Log_file.Writer.close w

let append_log env name entries =
  let w = Log_file.Writer.open_append env name in
  List.iter (fun e -> ignore (Log_file.Writer.append w e)) entries;
  Log_file.Writer.fsync w;
  Log_file.Writer.close w

let rewrite env name data =
  let f = Env.create env name in
  Env.append f data;
  Env.fsync f;
  Env.close_file f

(* What the cursor must produce: log entries stably sorted (ties keep
   log order, and beat sstable entries), merged with the sorted
   sstable, restricted to the inclusive range. *)
let reference ~sst_sorted ~log_entries ~low ~high =
  let log_sorted = List.stable_sort K.compare_entries log_entries in
  K.to_list (K.merge [ K.of_list log_sorted; K.of_list sst_sorted ])
  |> List.filter (fun (e : K.entry) -> String.compare low e.key <= 0 && String.compare e.key high <= 0)

let check_range label view env sst ~sst_sorted ~log_entries ~low ~high =
  let got = K.to_list (Sorted_view.cursor view env ~sst ~log_name:"t.log" ~low ~high) in
  let want = reference ~sst_sorted ~log_entries ~low ~high in
  Alcotest.(check (list entry_t)) (Printf.sprintf "%s [%s, %s]" label low high) want got

(* --- unit: small deterministic merge, every interesting range ------ *)

let small_equivalence () =
  let env = Env.memory () in
  (* Multiple versions per key, split across sstable and log; the log
     holds both newer and older versions than the table, plus a
     tombstone and keys the table lacks entirely. *)
  let sst_in = [ mk "b" 10 (Some "b10"); mk "b" 4 (Some "b4"); mk "d" 6 (Some "d6"); mk "f" 2 (Some "f2") ] in
  let log_in =
    [ mk "c" 11 (Some "c11"); mk "b" 12 None; mk "a" 3 (Some "a3"); mk "d" 5 (Some "d5"); mk "g" 13 (Some "g13") ]
  in
  let sst, sst_sorted = build_sst env "t.sst" sst_in in
  write_log env "t.log" log_in;
  Sorted_view.build env ~sst ~log_name:"t.log" ~view_name:"t.view";
  let view =
    match Sorted_view.load env ~sst ~log_name:"t.log" ~view_name:"t.view" with
    | Some v -> v
    | None -> Alcotest.fail "fresh view failed to load"
  in
  Alcotest.(check int) "one token per entry" (List.length sst_in + List.length log_in)
    (Sorted_view.token_count view);
  Alcotest.(check int) "log fully covered" (Env.size env "t.log")
    (Sorted_view.covered_log_bytes view);
  let ranges =
    [ ("", "\xff"); ("a", "g"); ("b", "b"); ("b", "d"); ("aa", "cz"); ("e", "z"); ("x", "z"); ("d", "a") ]
  in
  List.iter
    (fun (low, high) -> check_range "small" view env sst ~sst_sorted ~log_entries:log_in ~low ~high)
    ranges

(* --- unit: rank seeks land exactly, wherever [low] falls ----------- *)

(* Build a view over [sst_n] random sstable entries (in blocks of
   [block_size] bytes) and [log_n] covered log records, append
   [suffix_n] records after the build, and compare the cursor with the
   reference merge from every seek position that matters: before the
   first key, at every key and just past it (which covers every gap
   between blocks), and after the last key. *)
let check_seeks ~label ~seed ~keys ~sst_n ~log_n ~suffix_n ~block_size =
  let env = Env.memory () in
  let st = Random.State.make [| 0x5ee1; seed |] in
  (* Globally unique versions so no exact-duplicate triples make the
     tie order observable. *)
  let next_v = ref 0 in
  let gen n =
    List.init n (fun _ ->
        incr next_v;
        let k = Printf.sprintf "k%04d" (Random.State.int st keys) in
        let value = if Random.State.int st 10 = 0 then None else Some (Printf.sprintf "v%d" !next_v) in
        mk k !next_v value)
  in
  let sst, sorted = build_sst ~block_size env "t.sst" (gen sst_n) in
  let covered = gen log_n in
  write_log env "t.log" covered;
  Sorted_view.build env ~sst ~log_name:"t.log" ~view_name:"t.view";
  let suffix = gen suffix_n in
  if suffix <> [] then append_log env "t.log" suffix;
  let view =
    match Sorted_view.load env ~sst ~log_name:"t.log" ~view_name:"t.view" with
    | Some v -> v
    | None -> Alcotest.fail "fresh view failed to load"
  in
  Alcotest.(check int) (label ^ ": one token per covered entry") (sst_n + log_n)
    (Sorted_view.token_count view);
  let log_entries = covered @ suffix in
  let keys_of l = List.sort_uniq compare (List.map (fun (e : K.entry) -> e.key) l) in
  let all_keys = keys_of (sorted @ log_entries) in
  let lows = ("" :: List.concat_map (fun k -> [ k; k ^ "\x00" ]) all_keys) @ [ "\xff" ] in
  List.iter
    (fun low ->
      let high =
        match List.filter (fun k -> String.compare k low >= 0) all_keys with
        | [] -> "\xff"
        | ks -> List.nth ks (Random.State.int st (min 8 (List.length ks)))
      in
      check_range label view env sst ~sst_sorted:sorted ~log_entries ~low ~high;
      check_range label view env sst ~sst_sorted:sorted ~log_entries ~low ~high:"\xff")
    lows;
  (sorted, covered)

let seek_equivalence () =
  (* Many small blocks, with keys whose versions are split between the
     log and the sstable. *)
  let sorted, covered =
    check_seeks ~label:"blocks" ~seed:8 ~keys:250 ~sst_n:600 ~log_n:300 ~suffix_n:0 ~block_size:256
  in
  let in_sst = List.map (fun (e : K.entry) -> e.key) sorted in
  Alcotest.(check bool) "some key has versions in both log and sstable" true
    (List.exists (fun (e : K.entry) -> List.mem e.key in_sst) covered);
  (* Fewer tokens than one block. *)
  ignore (check_seeks ~label:"tiny" ~seed:11 ~keys:6 ~sst_n:5 ~log_n:3 ~suffix_n:0 ~block_size:4096);
  ignore (check_seeks ~label:"log only" ~seed:12 ~keys:6 ~sst_n:0 ~log_n:4 ~suffix_n:0 ~block_size:4096);
  (* An uncovered log suffix merged into a seeked walk. *)
  ignore
    (check_seeks ~label:"suffix" ~seed:13 ~keys:120 ~sst_n:300 ~log_n:100 ~suffix_n:40 ~block_size:256)

(* --- unit: records appended after the build come from the suffix --- *)

let uncovered_suffix () =
  let env = Env.memory () in
  let st = Random.State.make [| 0x5ee1; 9 |] in
  let next_v = ref 0 in
  let gen n =
    List.init n (fun _ ->
        incr next_v;
        mk (Printf.sprintf "k%04d" (Random.State.int st 100)) !next_v (Some (Printf.sprintf "v%d" !next_v)))
  in
  let sst, sst_sorted = build_sst env "t.sst" (gen 150) in
  let covered = gen 80 in
  write_log env "t.log" covered;
  Sorted_view.build env ~sst ~log_name:"t.log" ~view_name:"t.view";
  let suffix = gen 60 in
  append_log env "t.log" suffix;
  (* Still loads: a longer log is staleness the cursor absorbs, not a
     validation failure. *)
  let view =
    match Sorted_view.load env ~sst ~log_name:"t.log" ~view_name:"t.view" with
    | Some v -> v
    | None -> Alcotest.fail "view must load with an uncovered suffix"
  in
  Alcotest.(check bool) "suffix is uncovered" true
    (Sorted_view.covered_log_bytes view < Env.size env "t.log");
  let log_entries = covered @ suffix in
  for _ = 1 to 20 do
    let a = Printf.sprintf "k%04d" (Random.State.int st 105) in
    let b = Printf.sprintf "k%04d" (Random.State.int st 105) in
    let low, high = if a <= b then (a, b) else (b, a) in
    check_range "suffix" view env sst ~sst_sorted ~log_entries ~low ~high
  done;
  check_range "suffix" view env sst ~sst_sorted ~log_entries ~low:"" ~high:"\xff"

(* --- validation: load rejects what it must ------------------------- *)

let load_validation () =
  let env = Env.memory () in
  let entries = List.init 50 (fun i -> mk (Printf.sprintf "k%03d" i) (i + 1) (Some "v")) in
  let sst, _ = build_sst env "t.sst" entries in
  write_log env "t.log" (List.init 20 (fun i -> mk (Printf.sprintf "q%03d" i) (100 + i) (Some "w")));
  Sorted_view.build env ~sst ~log_name:"t.log" ~view_name:"t.view";
  let load () = Sorted_view.load env ~sst ~log_name:"t.log" ~view_name:"t.view" in
  Alcotest.(check bool) "pristine view loads" true (load () <> None);
  let pristine = Env.read_all env "t.view" in
  Alcotest.(check bool) "pristine view well-formed" true (Sorted_view.well_formed pristine);
  (* Single flipped byte: structurally corrupt, load refuses. *)
  let b = Bytes.of_string pristine in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  rewrite env "t.view" (Bytes.to_string b);
  Alcotest.(check bool) "flipped byte: not well-formed" false
    (Sorted_view.well_formed (Env.read_all env "t.view"));
  Alcotest.(check bool) "flipped byte: load refuses" true (load () = None);
  rewrite env "t.view" pristine;
  (* Log shorter than the covered prefix (post-crash shape): refuse. *)
  let log_bytes = Env.read_all env "t.log" in
  rewrite env "t.log" (String.sub log_bytes 0 (String.length log_bytes / 2));
  Alcotest.(check bool) "truncated log: load refuses" true (load () = None);
  rewrite env "t.log" log_bytes;
  Alcotest.(check bool) "restored log: loads again" true (load () <> None);
  (* A different sstable under the same view: refuse. *)
  let other, _ = build_sst env "u.sst" (List.init 7 (fun i -> mk (Printf.sprintf "z%d" i) (i + 1) (Some "x"))) in
  Alcotest.(check bool) "foreign sstable: load refuses" true
    (Sorted_view.load env ~sst:other ~log_name:"t.log" ~view_name:"t.view" = None)

(* --- staleness mid-walk: covered bytes changed under a loaded view - *)

let stale_mid_walk () =
  let env = Env.memory () in
  let sst, _ = build_sst env "t.sst" [] in
  write_log env "t.log" [ mk "a" 1 (Some "1"); mk "b" 2 (Some "2") ];
  Sorted_view.build env ~sst ~log_name:"t.log" ~view_name:"t.view";
  let view =
    match Sorted_view.load env ~sst ~log_name:"t.log" ~view_name:"t.view" with
    | Some v -> v
    | None -> Alcotest.fail "view failed to load"
  in
  (* The covered prefix is append-only in the real system; simulate a
     violation (bit rot under a cached view) and require Stale, never
     garbage entries. *)
  rewrite env "t.log" (String.make 256 '\xff');
  Alcotest.check_raises "tampered covered bytes raise Stale" Sorted_view.Stale (fun () ->
      ignore (K.to_list (Sorted_view.cursor view env ~sst ~log_name:"t.log" ~low:"" ~high:"\xff")))

(* --- store level: views on vs. views off, randomized workload ------ *)

let small_db_config ~views =
  {
    Config.default with
    max_chunk_bytes = 8 * 1024;
    munk_rebalance_bytes = 6 * 1024;
    munk_rebalance_appended = 64;
    funk_log_limit_no_munk = 2 * 1024;
    funk_log_limit_with_munk = 8 * 1024;
    munk_cache_capacity = 2;
    sorted_view_enabled = views;
    block_cache_bytes = (if views then 1024 * 1024 else 0);
  }

let key_of st = Printf.sprintf "k%04d" (Random.State.int st 400)

let db_differential () =
  let a = Db.open_ ~config:(small_db_config ~views:true) (Env.memory ()) in
  let b = Db.open_ ~config:(small_db_config ~views:false) (Env.memory ()) in
  let st = Random.State.make [| 0x5ee1; 10 |] in
  for i = 0 to 3_999 do
    let k = key_of st in
    if Random.State.int st 12 = 0 then begin
      Db.delete a k;
      Db.delete b k
    end
    else begin
      let v = Printf.sprintf "v%06d" i in
      Db.put a k v;
      Db.put b k v
    end;
    if i mod 400 = 399 then begin
      Db.maintain a;
      Db.maintain b;
      let k = key_of st in
      ignore (Db.evict_munk a k);
      ignore (Db.evict_munk b k)
    end
  done;
  (* Force funk-backed (munk-less) chunks so scans take the cold path,
     where the view engages on [a]. *)
  for i = 0 to 15 do
    let k = Printf.sprintf "k%04d" (i * 25) in
    ignore (Db.evict_munk a k);
    ignore (Db.evict_munk b k)
  done;
  for _ = 1 to 60 do
    let x = key_of st and y = key_of st in
    let low, high = if x <= y then (x, y) else (y, x) in
    let ra = Db.scan a ~low ~high () in
    let rb = Db.scan b ~low ~high () in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "scan [%s, %s]" low high)
      rb ra
  done;
  Alcotest.(check (list (pair string string))) "full scan" (Db.scan b ~low:"" ~high:"\xff" ())
    (Db.scan a ~low:"" ~high:"\xff" ());
  let c name = Evendb_obs.Obs.Counter.get (Evendb_obs.Obs.counter (Db.obs a) name) in
  Alcotest.(check bool) "views were built" true (c "sorted_view.builds" > 0);
  Alcotest.(check bool) "scans were served by views" true (c "sorted_view.scans" > 0);
  Db.close a;
  Db.close b

(* --- store level: corrupt sidecar, scans fall back transparently --- *)

let runtime_fallback () =
  let env = Env.memory () in
  let db = Db.open_ ~config:(small_db_config ~views:true) env in
  let model = Hashtbl.create 256 in
  for i = 0 to 599 do
    let k = Printf.sprintf "k%04d" (i mod 300) in
    let v = Printf.sprintf "v%06d" i in
    Db.put db k v;
    Hashtbl.replace model k v
  done;
  for i = 0 to 11 do
    ignore (Db.evict_munk db (Printf.sprintf "k%04d" (i * 25)))
  done;
  let views = List.filter (fun n -> Filename.check_suffix n ".view") (Env.list_files env) in
  Alcotest.(check bool) "store has view sidecars" true (views <> []);
  (* Trash every sidecar under the live handle: loads fail, scans must
     silently use the merge path and lose nothing. *)
  List.iter (fun n -> rewrite env n (String.make 64 '\x00')) views;
  let expected =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
  in
  Alcotest.(check (list (pair string string)))
    "scan correct with every view corrupt" expected
    (Db.scan db ~low:"" ~high:"\xff" ());
  Db.close db

(* --- store level: scan limits stop each chunk's walk, exactly ------- *)

module SMap = Map.Make (String)

let limit_config ~views =
  {
    (small_db_config ~views) with
    Config.sstable_block_bytes = 256;
    (* Every chunk keeps its munk until [evict_all], so every view is
       built over a log that already holds records. *)
    munk_cache_capacity = 64;
  }

let evict_all db = List.iter (fun (k, _, _) -> ignore (Db.evict_munk db k)) (Db.chunk_weights db)

(* The munk cache samples every eighth chunk visit of a domain; a scan
   run on a fresh domain that visits fewer chunks admits no munk, so it
   stays on the cold (funk) path. *)
let cold_scan db ?limit ~low ~high () =
  Domain.join (Domain.spawn (fun () -> Db.scan db ?limit ~low ~high ()))

(* Several cold chunks whose funks hold an sstable plus logged updates
   and deletes, and the model of their contents. *)
let cold_store ~views =
  let db = Db.open_ ~config:(limit_config ~views) (Env.memory ()) in
  let model = ref SMap.empty in
  let put k v =
    Db.put db k v;
    model := SMap.add k v !model
  in
  for i = 0 to 599 do
    put (Printf.sprintf "k%04d" i) (Printf.sprintf "value-%06d-%s" i (String.make 12 'x'))
  done;
  Db.maintain db;
  for i = 0 to 599 do
    let k = Printf.sprintf "k%04d" i in
    if i mod 13 = 0 then begin
      Db.delete db k;
      model := SMap.remove k !model
    end
    else if i mod 5 = 0 then put k (Printf.sprintf "update-%06d" i)
  done;
  evict_all db;
  Alcotest.(check bool) "several chunks" true (Db.chunk_count db >= 4);
  Alcotest.(check int) "all chunks cold" 0 (Db.munk_count db);
  (db, !model)

let take n l = List.filteri (fun i _ -> i < n) l

(* Each chunk's min key and its live keys, last key first. *)
let chunk_bounds db model =
  let mins = List.map (fun (k, _, _) -> k) (Db.chunk_weights db) in
  let rec go = function
    | [] -> []
    | lo :: rest ->
      let below k = match rest with next :: _ -> String.compare k next < 0 | [] -> true in
      let keys = SMap.fold (fun k _ acc -> if k >= lo && below k then k :: acc else acc) model [] in
      (lo, keys) :: go rest
  in
  go mins

let check_limits ~views ~db ~model ~label =
  let lows = "" :: List.concat_map (fun (lo, keys) -> lo :: (match keys with last :: _ -> [ last ] | [] -> [])) (chunk_bounds db model) in
  List.iter
    (fun low ->
      let high = "\xff" in
      let all = cold_scan db ~low ~high () in
      let want = SMap.bindings (SMap.filter (fun k _ -> k >= low) model) in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "%s views=%b unbounded from %S" label views low)
        want all;
      List.iter
        (fun limit ->
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s views=%b limit %d from %S" label views limit low)
            (take limit want)
            (cold_scan db ~limit ~low ~high ()))
        [ 1; 7; 100 ])
    lows

let db_limits () =
  List.iter
    (fun views ->
      let db, model = cold_store ~views in
      check_limits ~views ~db ~model ~label:"limits";
      (* From the first chunk's last key, limit 7 takes one row there
         and ends inside the second chunk. *)
      (match chunk_bounds db model with
      | (_, last :: _) :: (lo2, keys2) :: _ ->
        let rows = cold_scan db ~limit:7 ~low:last ~high:"\xff" () in
        Alcotest.(check int) "seven rows" 7 (List.length rows);
        let end_key = fst (List.nth rows 6) in
        Alcotest.(check bool) "limit ends inside the second chunk" true
          (end_key >= lo2 && List.mem end_key keys2 && end_key <> List.hd keys2)
      | _ -> Alcotest.fail "expected two non-empty chunks");
      Db.close db)
    [ true; false ]

(* Re-encode a view file with its last log token pointing one byte into
   its record: [load] still accepts the view (trailer CRC, sstable
   identity and covered log prefix all hold) but the walk raises
   [Stale] when it reaches that token, after it has pulled rows. *)
let misdirect_last_log_token data =
  let pos = ref 8 in
  let rd () =
    let v, p = Varint.read data !pos in
    pos := p;
    v
  in
  let sst_count = rd () in
  let sst_size = rd () in
  let log_upto = rd () in
  let log_crc = String.get_int32_le data !pos in
  pos := !pos + 4;
  let tokens = Array.init (rd ()) (fun _ -> rd ()) in
  let last = ref (-1) in
  Array.iteri (fun i t -> if t > 0 then last := i) tokens;
  if !last < 0 then None
  else begin
    tokens.(!last) <- tokens.(!last) + 1;
    let buf = Buffer.create (String.length data) in
    Buffer.add_string buf (String.sub data 0 8);
    List.iter (Varint.write buf) [ sst_count; sst_size; log_upto ];
    Buffer.add_int32_le buf log_crc;
    Varint.write buf (Array.length tokens);
    Array.iter (Varint.write buf) tokens;
    Buffer.add_int32_le buf (Crc32c.mask (Crc32c.string (Buffer.contents buf)));
    Some (Buffer.contents buf)
  end

let db_limits_stale_view () =
  let db, model = cold_store ~views:true in
  let env = Db.env db in
  let tampered =
    List.filter
      (fun n ->
        Filename.check_suffix n ".view"
        &&
        match misdirect_last_log_token (Env.read_all env n) with
        | Some data ->
          rewrite env n data;
          true
        | None -> false)
      (Env.list_files env)
  in
  Alcotest.(check bool) "several views misdirected" true (List.length tampered >= 2);
  let fallbacks () =
    Evendb_obs.Obs.Counter.get (Evendb_obs.Obs.counter (Db.obs db) "sorted_view.stale_fallbacks")
  in
  check_limits ~views:true ~db ~model ~label:"stale view";
  Alcotest.(check bool) "walks went stale and fell back" true (fallbacks () > 0);
  Db.close db

(* A limit-1 scan reads the block holding its first row, and at most
   one more: from a chunk's last key, not the blocks before it (the
   seek); from its first key, not the blocks after it (the limit). *)
let db_limit_block_fills () =
  let db, model = cold_store ~views:true in
  let env = Db.env db in
  List.iter
    (fun (_, keys) ->
      List.iter
        (fun low ->
          let bc = Evendb_cache.Block_cache.create ~capacity_bytes:(1 lsl 20) () in
          Env.set_block_cache env (Some bc);
          let rows = cold_scan db ~limit:1 ~low ~high:"\xff" () in
          Alcotest.(check (list (pair string string))) "one row" [ (low, SMap.find low model) ] rows;
          let fills = Evendb_cache.Block_cache.fills bc in
          if fills > 2 then Alcotest.failf "limit-1 scan from %s filled %d blocks" low fills)
        (match keys with [] -> [] | last :: _ -> [ last; List.nth keys (List.length keys - 1) ]))
    (chunk_bounds db model);
  Alcotest.(check bool) "served by views" true
    (Evendb_obs.Obs.Counter.get (Evendb_obs.Obs.counter (Db.obs db) "sorted_view.scans") > 0);
  Db.close db

(* --- scrubber: corrupt views are findings; repair regenerates ------ *)

let scrub_detects_and_repairs () =
  let env = Env.memory () in
  let db = Db.open_ ~config:(small_db_config ~views:true) env in
  for i = 0 to 599 do
    Db.put db (Printf.sprintf "k%04d" (i mod 300)) (Printf.sprintf "v%06d" i)
  done;
  for i = 0 to 11 do
    ignore (Db.evict_munk db (Printf.sprintf "k%04d" (i * 25)))
  done;
  let expected = Db.scan db ~low:"" ~high:"\xff" () in
  Db.close db;
  let module Scrub = Evendb_check.Scrub in
  Alcotest.(check bool) "clean before" true (Scrub.is_clean (Scrub.scrub env));
  let victim =
    match List.filter (fun n -> Filename.check_suffix n ".view") (Env.list_files env) with
    | v :: _ -> v
    | [] -> Alcotest.fail "store has no view sidecars"
  in
  rewrite env victim (String.make 128 '\x7f');
  let report = Scrub.scrub env in
  Alcotest.(check bool) "corrupt view is a finding" true
    (List.exists (fun f -> f.Scrub.f_file = victim) (Scrub.errors report));
  let repaired = Scrub.repair env in
  Alcotest.(check bool) "repair acted on the view" true
    (List.mem_assoc victim repaired.Scrub.actions);
  Alcotest.(check bool) "clean after repair" true (Scrub.is_clean (Scrub.scrub env));
  Alcotest.(check bool) "regenerated view is well-formed" true
    (Sorted_view.well_formed (Env.read_all env victim));
  (* And the store still reads exactly what it held. *)
  let db = Db.open_ ~config:(small_db_config ~views:true) env in
  Alcotest.(check (list (pair string string))) "data intact after repair" expected
    (Db.scan db ~low:"" ~high:"\xff" ());
  Db.close db

let suite =
  [
    ( "sorted_view",
      [
        Alcotest.test_case "merge equivalence (small, all ranges)" `Quick small_equivalence;
        Alcotest.test_case "merge equivalence across seek edges" `Quick seek_equivalence;
        Alcotest.test_case "uncovered log suffix is merged in" `Quick uncovered_suffix;
        Alcotest.test_case "load rejects corrupt/truncated/foreign" `Quick load_validation;
        Alcotest.test_case "mid-walk tampering raises Stale" `Quick stale_mid_walk;
        Alcotest.test_case "db scans: views on == views off" `Quick db_differential;
        Alcotest.test_case "corrupt sidecars: transparent fallback" `Quick runtime_fallback;
        Alcotest.test_case "db scan limits are exact prefixes" `Quick db_limits;
        Alcotest.test_case "db scan limits across stale views" `Quick db_limits_stale_view;
        Alcotest.test_case "limit-1 scan fills at most 2 blocks" `Quick db_limit_block_fills;
        Alcotest.test_case "scrub finds, repair regenerates" `Quick scrub_detects_and_repairs;
      ] );
  ]
