(* Golden on-disk format of the two baselines: a fixed op sequence on
   an in-memory env must leave the same manifest bytes and the same
   files (name, length, CRC32C of the contents) as the reference
   below. A structural change to the engines that alters what reaches
   the disk fails here. *)

open Evendb_util
open Evendb_storage

let key i = Printf.sprintf "key%06d" i

let hex s =
  String.to_seq s |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) |> List.of_seq
  |> String.concat ""

(* Two incarnations: writes, deletes and overwrites with a forced
   compaction, then a reopen (recovery) and more of the same, leaving
   one put in the WAL. *)
let drive ~open_ ~put ~delete ~compact_now ~close =
  let env = Env.memory () in
  let db = open_ env in
  for i = 0 to 1999 do
    put db (key (i * 7 mod 1000)) (Printf.sprintf "v%d-%s" i (String.make (i mod 23) 'x'))
  done;
  for i = 0 to 99 do
    delete db (key (i * 3))
  done;
  compact_now db;
  for i = 0 to 149 do
    put db (key (1000 + i)) (string_of_int i)
  done;
  close db;
  let db = open_ env in
  for i = 0 to 399 do
    put db (key (i * 11 mod 1200)) (Printf.sprintf "w%d" i)
  done;
  for i = 0 to 49 do
    delete db (key (i * 13))
  done;
  compact_now db;
  put db "tail" "in-wal";
  close db;
  env

let files env =
  List.sort compare (Env.list_files env)
  |> List.map (fun name ->
         let data = Env.read_all env name in
         Printf.sprintf "%s:%d:%08lx" name (String.length data) (Crc32c.string data))
  |> String.concat ","

let lsm_manifest = "a4015c8c15070004a101a201a3019c01018e0100000000689fca10"

let lsm_files =
  "LSM_MANIFEST:27:48674bc7,lsm_00000142.sst:8869:b105628f,lsm_00000156.sst:4656:a8e241c4,\
   lsm_00000161.sst:9158:4e98223f,lsm_00000162.sst:9569:22cb5728,lsm_00000163.sst:512:ec9f57f0,\
   lsm_wal_00000092.log:21:aa079d56"

let flsm_manifest =
  "9c015c8c15050100000100039b01960191010600018701096b6579303030343031018801096b657930303038303101\
   8901096b6579303030383132018a01096b6579303030383635018b01096b6579303030383735018c01050000096b65\
   7930303031393600096b657930303033393100096b657930303035393700096b6579303030373932000300036e6d6c\
   096b65793030303538370371706f096b657930303039393001725c347c42"

let flsm_files =
  "FLSM_MANIFEST:171:48674bc7,flsm_00000108.sst:6605:eff5ff5a,flsm_00000109.sst:6628:0870016c,\
   flsm_00000110.sst:6605:2efbcaa0,flsm_00000111.sst:407:ecfc96a5,flsm_00000112.sst:6605:0cf1f104,\
   flsm_00000113.sst:6568:7233d881,flsm_00000114.sst:397:f2093359,flsm_00000135.sst:3478:b8b58af3,\
   flsm_00000136.sst:2623:d3de528c,flsm_00000137.sst:235:75acd7c0,flsm_00000138.sst:600:06de96fa,\
   flsm_00000139.sst:225:9d94135f,flsm_00000140.sst:4017:d878326d,flsm_00000145.sst:2821:f41e31bd,\
   flsm_00000150.sst:2840:cce42033,flsm_00000155.sst:2123:7fb47d5e,flsm_wal_00000092.log:21:aa079d56"

let lsm_golden () =
  let open Evendb_lsm in
  let config =
    {
      Lsm.Config.default with
      memtable_bytes = 2 * 1024;
      level_base_bytes = 32 * 1024;
      target_file_bytes = 12 * 1024;
    }
  in
  let env =
    drive ~open_:(Lsm.open_ ~config) ~put:Lsm.put ~delete:Lsm.delete ~compact_now:Lsm.compact_now
      ~close:Lsm.close
  in
  Alcotest.(check string) "LSM_MANIFEST bytes" lsm_manifest (hex (Env.read_all env "LSM_MANIFEST"));
  Alcotest.(check string) "files" lsm_files (files env)

let flsm_golden () =
  let open Evendb_flsm in
  let config =
    {
      Flsm.Config.default with
      memtable_bytes = 2 * 1024;
      guard_bytes = 8 * 1024;
      max_fragments_per_guard = 3;
    }
  in
  let env =
    drive ~open_:(Flsm.open_ ~config) ~put:Flsm.put ~delete:Flsm.delete
      ~compact_now:Flsm.compact_now ~close:Flsm.close
  in
  Alcotest.(check string) "FLSM_MANIFEST bytes" flsm_manifest
    (hex (Env.read_all env "FLSM_MANIFEST"));
  Alcotest.(check string) "files" flsm_files (files env)

let suite =
  [
    ( "baseline format",
      [
        Alcotest.test_case "lsm golden manifest and files" `Quick lsm_golden;
        Alcotest.test_case "flsm golden manifest and files" `Quick flsm_golden;
      ] );
  ]
