open Evendb_storage

(* Funk files, and the sorted-view sidecars of earlier builds. *)
let sst_name id = Printf.sprintf "funk_%08d.sst" id
let log_name id = Printf.sprintf "funk_%08d.log" id

type funk_file = Sst | Log | View

let parse_funk name =
  if String.length name >= 17 && String.sub name 0 5 = "funk_" then
    match (int_of_string_opt (String.sub name 5 8), String.sub name 13 (String.length name - 13)) with
    | Some id, ".sst" -> Some (id, Sst)
    | Some id, ".log" -> Some (id, Log)
    | Some id, ".view" -> Some (id, View)
    | _ -> None
  else None

(* Markers. MODE records whether the previous incarnation ran
   synchronously: then its funks reflect every completed update (§3.5)
   and recovery trusts the whole epoch, checkpoint or not. FENCED
   survives restarts, so a deposed primary stays read-only until an
   operator removes it. *)
let mode_file = "MODE"
let fenced_file = "FENCED"
let follower_file = "FOLLOWER"
let repl_lsn_file = "REPL_LSN"
let shards_file = "SHARDS"

let mode_to_string = function Config.Sync -> "sync" | Config.Async -> "async"

let mode_of_string = function
  | "sync" -> Some Config.Sync
  | "async" -> Some Config.Async
  | _ -> None

let store_mode ?(name = mode_file) env mode = Meta_file.publish env ~name (mode_to_string mode)

let load_mode env =
  if not (Env.exists env mode_file) then Config.Async
  else
    match mode_of_string (Env.read_all env mode_file) with
    | Some mode -> mode
    | None ->
      Env.note_corruption env;
      Config.Async

(* Shards: SHARDS holds the split keys (varint count + length-prefixed
   keys + CRC) in the root namespace; shard [i] is a whole store under
   the name prefix "sNN.". *)
let max_shards = 64
let shard_prefix i = Printf.sprintf "s%02d." i
let shard_env env i = Env.sub env ~prefix:(shard_prefix i)
let shard_file i name = Backend.prefixed_name ~prefix:(shard_prefix i) name
let is_sharded env = Env.exists env shards_file

let store_shards env boundaries =
  let buf = Buffer.create 64 in
  Evendb_util.Varint.write buf (Array.length boundaries);
  Array.iter
    (fun k ->
      Evendb_util.Varint.write buf (String.length k);
      Buffer.add_string buf k)
    boundaries;
  Meta_file.store env ~name:shards_file (Buffer.contents buf)

let load_shards env =
  Meta_file.decode env ~name:shards_file (fun payload ->
      let n, pos = Evendb_util.Varint.read payload 0 in
      let keys = Array.make n "" in
      let pos = ref pos in
      for i = 0 to n - 1 do
        let len, p = Evendb_util.Varint.read payload !pos in
        if p + len > String.length payload then invalid_arg "short key";
        keys.(i) <- String.sub payload p len;
        pos := p + len
      done;
      keys)

(* ------------------------------------------------------------------ *)

let tmp_name name = name ^ ".tmp"
let is_tmp name = Filename.check_suffix name ".tmp"

type file =
  | Funk of int * funk_file
  | Manifest | Checkpoint | Recovery_table
  | Mode | Fenced | Follower | Repl_lsn | Shards
  | Snapshot of string * string
  | Quarantined | Telemetry | Tmp | Other

let fixed_names =
  [
    (Manifest.file_name, Manifest);
    (Checkpoint_file.file_name, Checkpoint);
    (Recovery_table.file_name, Recovery_table);
    (mode_file, Mode);
    (fenced_file, Fenced);
    (follower_file, Follower);
    (repl_lsn_file, Repl_lsn);
    (shards_file, Shards);
  ]

let classify name =
  if Env.is_quarantined name then Quarantined
  else if Env.is_telemetry name then Telemetry
  else if Env.is_snapshot name then
    match Env.split_snapshot name with Some (id, member) -> Snapshot (id, member) | None -> Other
  else if is_tmp name then Tmp
  else
    match (List.assoc_opt name fixed_names, parse_funk name) with
    | Some f, _ -> f
    | None, Some (id, f) -> Funk (id, f)
    | None, None -> Other

let swept ~live ~published = function
  | Funk (id, (Sst | Log)) -> not (live id)
  | Funk (_, View) | Tmp -> true
  | Snapshot (id, member) -> (not (published id)) || is_tmp member
  | _ -> false
