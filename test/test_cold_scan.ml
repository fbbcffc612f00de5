(* Cold scans: a scan of a munk-less chunk merges the funk's log with
   its SSTable. A limit stops each chunk's walk exactly, the SSTable
   side reads only the blocks up to that limit, and no code path leaves
   a sorted-view sidecar ([funk_*.view], written by earlier builds)
   behind. *)

open Evendb_storage
open Evendb_core
module SMap = Map.Make (String)

(* Small chunks and 256-byte blocks, so 600 keys span several chunks
   and many blocks each. Every chunk keeps its munk until [evict_all],
   so each cold funk holds an sstable plus logged records. *)
let cold_config ~cache =
  {
    Config.default with
    max_chunk_bytes = 8 * 1024;
    munk_rebalance_bytes = 6 * 1024;
    munk_rebalance_appended = 64;
    funk_log_limit_no_munk = 2 * 1024;
    funk_log_limit_with_munk = 8 * 1024;
    munk_cache_capacity = 64;
    sstable_block_bytes = 256;
    block_cache_bytes = (if cache then 1024 * 1024 else 0);
  }

let evict_all db = List.iter (fun (k, _, _) -> ignore (Db.evict_munk db k)) (Db.chunk_weights db)

(* The munk cache samples every eighth chunk visit of a domain; a scan
   run on a fresh domain that visits fewer chunks admits no munk, so it
   stays on the cold (funk) path. *)
let cold_scan db ?limit ~low ~high () =
  Domain.join (Domain.spawn (fun () -> Db.scan db ?limit ~low ~high ()))

(* Several cold chunks whose funks hold an sstable plus logged updates
   and deletes, and the model of their contents. *)
let cold_store ~cache =
  let db = Db.open_ ~config:(cold_config ~cache) (Env.memory ()) in
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

let check_limits ~cache ~db ~model =
  let lows = "" :: List.concat_map (fun (lo, keys) -> lo :: (match keys with last :: _ -> [ last ] | [] -> [])) (chunk_bounds db model) in
  List.iter
    (fun low ->
      let high = "\xff" in
      let all = cold_scan db ~low ~high () in
      let want = SMap.bindings (SMap.filter (fun k _ -> k >= low) model) in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "cache=%b unbounded from %S" cache low)
        want all;
      List.iter
        (fun limit ->
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "cache=%b limit %d from %S" cache limit low)
            (take limit want)
            (cold_scan db ~limit ~low ~high ()))
        [ 1; 7; 100 ])
    lows

let db_limits () =
  List.iter
    (fun cache ->
      let db, model = cold_store ~cache in
      check_limits ~cache ~db ~model;
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

(* A limit-1 scan reads the block holding its first row, and at most
   one more: from a chunk's last key, not the blocks before it (the
   seek); from its first key, not the blocks after it (the limit). *)
let db_limit_block_fills () =
  let db, model = cold_store ~cache:true in
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
  Db.close db

(* Puts, munk evictions, cold rebalances, splits and [maintain] leave
   only sstables and logs next to each funk: no sidecar of any other
   kind is written. *)
let no_view_files () =
  let db, model = cold_store ~cache:true in
  let env = Db.env db in
  (* Updates to cold chunks drive cold funk rebalances and splits. *)
  let model = ref model in
  for i = 0 to 599 do
    if i mod 3 = 0 then begin
      let k = Printf.sprintf "k%04d" i and v = String.make 40 'y' in
      Db.put db k v;
      model := SMap.add k v !model
    end
  done;
  Db.maintain db;
  evict_all db;
  Db.maintain db;
  Alcotest.(check (list (pair string string))) "rows" (SMap.bindings !model)
    (cold_scan db ~low:"" ~high:"\xff" ());
  Db.close db;
  let views = List.filter (fun n -> Filename.check_suffix n ".view") (Env.list_files env) in
  Alcotest.(check (list string)) "no .view files" [] views

let suite =
  [
    ( "cold_scan",
      [
        Alcotest.test_case "db scan limits are exact prefixes" `Quick db_limits;
        Alcotest.test_case "limit-1 scan fills at most 2 blocks" `Quick db_limit_block_fills;
        Alcotest.test_case "no code path writes a .view file" `Quick no_view_files;
      ] );
  ]
