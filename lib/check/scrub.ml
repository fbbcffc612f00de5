open Evendb_util
open Evendb_storage
open Evendb_sstable
open Evendb_log
open Evendb_core

type severity = Error | Warning

type kind =
  | Bad_checksum
  | Structural
  | Log_garbage
  | Missing_file
  | Orphan
  | Leftover_tmp
  | Unknown_file

type finding = {
  f_file : string;
  f_severity : severity;
  f_kind : kind;
  f_detail : string;
}

type report = {
  files_checked : int;
  findings : finding list;
  actions : (string * string) list;
}

let errors r = List.filter (fun f -> f.f_severity = Error) r.findings
let is_clean r = errors r = []

let finding f_severity f_kind f_file f_detail = { f_file; f_severity; f_kind; f_detail }

(* ------------------------------------------------------------------ *)
(* Classification: the store's own layout, refined where it ends       *)

module Lsm_tree = Evendb_lsm.Lsm_tree

type file_class =
  | Store of Layout.file
  | Baseline of Lsm_tree.file  (* an LSM or FLSM file *)
  | Backup_archive
  | Journal_segment of int  (* telemetry/metrics_*.mj *)
  | Unknown

let classify name =
  match Layout.classify name with
  | Layout.Telemetry -> (
    match Evendb_telemetry.Journal.parse_segment_name name with
    | Some i -> Journal_segment i
    | None -> Unknown)
  | Layout.Other -> (
    match (Evendb_lsm.Lsm.parse_file_name name, Evendb_flsm.Flsm.parse_file_name name) with
    | Some f, _ | None, Some f -> Baseline f
    | None, None -> if Backup.parse_archive_name name <> None then Backup_archive else Unknown)
  | f -> Store f

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let bad_checksum name (c : Io_error.corruption) = [ finding Error Bad_checksum name c.c_detail ]

(* Every metadata file shares the same frame: payload + CRC32C LE. *)
let check_crc_trailer env name =
  match Meta_file.load env ~name with _ -> [] | exception Env.Corruption c -> bad_checksum name c

let check_sst env name =
  try
    Sstable.Reader.verify (Sstable.Reader.open_ env name);
    []
  with Env.Corruption c -> bad_checksum name c

let check_log env name =
  List.map
    (fun (lo, hi) ->
      finding Warning Log_garbage name (Printf.sprintf "undecodable bytes [%d, %d)" lo hi))
    (Log_file.Reader.garbage_regions env name)

let check_mode env name =
  let payload = Env.read_all env name in
  match Layout.mode_of_string payload with
  | Some _ -> []
  | None ->
    Env.note_corruption env;
    [ finding Error Structural name (Printf.sprintf "unrecognized persistence mode %S" payload) ]

(* A member of a *published* snapshot is checked like its live-store
   counterpart — same formats, frozen names. The snapshot MANIFEST is
   only CRC-validated: its funk ids reference the snapshot's own copies,
   never the live store, so cross-file checks against the live layout
   would be meaningless. *)
let check_snapshot_member env name ~member =
  match Layout.classify member with
  | Layout.Funk (_, Layout.Sst) -> check_sst env name
  | Layout.Funk (_, Layout.Log) -> check_log env name
  | Layout.Manifest | Layout.Checkpoint | Layout.Recovery_table -> check_crc_trailer env name
  | Layout.Mode -> check_mode env name
  | Layout.Tmp -> []
  | _ -> [ finding Warning Unknown_file name "unexpected member of a published snapshot" ]

(* Cross-file referential integrity of the EvenDB layout: every
   manifest-live funk id must resolve to its files, and the sentinel
   ""-min-key funk must exist (recovery refuses to start without it). *)
let check_manifest_refs env (manifest : Manifest.t) ~funk_ssts ~funk_logs =
  let live = manifest.Manifest.live in
  let missing present name what =
    List.filter_map
      (fun id ->
        if List.mem id present then None
        else Some (finding Error Missing_file (name id) ("manifest-live funk " ^ what ^ " missing")))
      live
  in
  let missing = missing funk_ssts Layout.sst_name "SSTable" @ missing funk_logs Layout.log_name "log" in
  (* Sentinel check only when every live SSTable is readable — a corrupt
     one is already reported and may well be the sentinel. *)
  let min_keys =
    List.filter_map
      (fun id ->
        if List.mem id funk_ssts then
          try Some (Sstable.Reader.chunk_min_key (Sstable.Reader.open_ env (Layout.sst_name id)))
          with Env.Corruption _ -> None
        else None)
      live
  in
  if live <> [] && List.length min_keys = List.length live && not (List.mem "" min_keys) then
    missing
    @ [ finding Error Structural Manifest.file_name "no live funk carries the sentinel \"\" min-key" ]
  else missing

(* The finding for a file {!Layout.swept} names: what recovery deletes,
   fsck reports as a leftover. *)
let leftover name ~published = function
  | Layout.Funk (_, Layout.View) ->
    finding Warning Orphan name "sorted-view sidecar of an earlier build; the recovery sweep deletes it"
  | Layout.Funk _ ->
    finding Warning Orphan name "funk not referenced by the manifest; the recovery sweep deletes it"
  | Layout.Snapshot (id, _) when not (published id) ->
    finding Warning Orphan name
      "member of a half-published snapshot (no valid COMPLETE marker); the recovery sweep drops it"
  | _ -> finding Warning Leftover_tmp name "leftover temporary file (interrupted write-then-rename)"

(* One flat namespace: a plain store, the root of a sharded one, or one
   shard. *)
let scrub_files env files =
  let classes = List.map (fun n -> (n, classify n)) files in
  let funk_ids ext =
    List.filter_map
      (function _, Store (Layout.Funk (id, e)) when e = ext -> Some id | _ -> None)
      classes
  in
  let funk_ssts = funk_ids Layout.Sst and funk_logs = funk_ids Layout.Log in
  let manifest = try Ok (Manifest.load env) with Env.Corruption c -> Error c in
  (* Recovery sweeps only when it opens a manifest. *)
  let live = match manifest with Ok (Some m) -> fun id -> List.mem id m.Manifest.live | _ -> fun _ -> true in
  let published = Snapshot.published env in
  (* The newest journal segment may legitimately end mid-frame (crash
     between append and fsync) — a torn tail there is a warning, the
     same damage in an older segment is real corruption. *)
  let telem_max =
    List.fold_left (fun acc -> function _, Journal_segment i -> max acc i | _ -> acc) (-1) classes
  in
  let check name = function
    | Store (Layout.Funk (_, Layout.Sst)) | Baseline (Lsm_tree.Sst _) -> check_sst env name
    | Store (Layout.Funk (_, Layout.Log)) | Baseline (Lsm_tree.Wal _) -> check_log env name
    | Store Layout.Manifest -> (
      match manifest with
      | Ok (Some m) -> check_manifest_refs env m ~funk_ssts ~funk_logs
      | Ok None -> []
      | Error c -> bad_checksum name c)
    | Store (Layout.Checkpoint | Layout.Recovery_table | Layout.Repl_lsn | Layout.Shards)
    | Baseline Lsm_tree.Manifest ->
      check_crc_trailer env name
    | Store Layout.Mode -> check_mode env name
    | Store (Layout.Snapshot (id, member)) ->
      if member = Snapshot.complete_name then
        match Snapshot.load_complete env ~id with
        | _ -> []
        | exception Env.Corruption c -> bad_checksum name c
      else if published id then check_snapshot_member env name ~member
      else []
    | Backup_archive -> (
      match Backup.verify env name with () -> [] | exception Env.Corruption c -> bad_checksum name c)
    | Journal_segment i -> (
      match (Evendb_telemetry.Journal.check env name).ck_error with
      | None -> []
      | Some detail when i = telem_max ->
        [
          finding Warning Log_garbage name
            (detail ^ " (torn journal tail — expected after a crash; replay stops here)");
        ]
      | Some detail ->
        Env.note_corruption env;
        [ finding Error Bad_checksum name detail ])
    | Unknown -> [ finding Warning Unknown_file name "name matches no known layout" ]
    | Store _ ->
      (* Presence-only markers (FENCED, FOLLOWER), and leftovers (their
         finding comes from the sweep rule below). *)
      []
  in
  List.concat_map
    (fun (name, cls) ->
      match cls with
      | Store f when Layout.swept ~live ~published f -> leftover name ~published f :: check name cls
      | _ -> check name cls)
    classes

(* A plain store is one namespace. A sharded store is its root (SHARDS)
   plus one whole store layout per shard, whose findings carry the
   shard-qualified name. The shard count comes from SHARDS, or — when
   it is damaged — from the shard namespaces that hold files. *)
type namespace = { env : Env.t; files : string list; qualify : string -> string; shard : bool }

let namespaces env =
  let files env = List.filter (fun n -> Layout.classify n <> Layout.Quarantined) (Env.list_files env) in
  let all = files env in
  if not (Layout.is_sharded env) then [ { env; files = all; qualify = Fun.id; shard = false } ]
  else begin
    let rec populated i =
      if i < Layout.max_shards && files (Layout.shard_env env i) <> [] then populated (i + 1) else i
    in
    let count =
      match Layout.load_shards env with
      | Some b -> Array.length b + 1
      | None | (exception Env.Corruption _) -> populated 0
    in
    let shards =
      List.init count (fun i ->
          let sub = Layout.shard_env env i in
          { env = sub; files = files sub; qualify = Layout.shard_file i; shard = true })
    in
    let owned = Hashtbl.create 64 in
    List.iter (fun ns -> List.iter (fun n -> Hashtbl.replace owned (ns.qualify n) ()) ns.files) shards;
    { env; files = List.filter (fun n -> not (Hashtbl.mem owned n)) all; qualify = Fun.id; shard = false }
    :: shards
  end

(* A shard without a manifest would open as a fresh, empty store. *)
let namespace_findings ns =
  (if ns.shard && not (Env.exists ns.env Manifest.file_name) then
     [ finding Error Missing_file Manifest.file_name "shard has no manifest; opening starts it empty" ]
   else [])
  @ scrub_files ns.env ns.files

let scrub_findings env =
  let nss = namespaces env in
  ( List.fold_left (fun acc ns -> acc + List.length ns.files) 0 nss,
    List.concat_map
      (fun ns -> List.map (fun f -> { f with f_file = ns.qualify f.f_file }) (namespace_findings ns))
      nss
    |> List.sort (fun a b -> compare (a.f_file, a.f_detail) (b.f_file, b.f_detail)) )

let scrub env =
  let files_checked, findings = scrub_findings env in
  { files_checked; findings; actions = [] }

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)

let quarantine env name =
  Env.rename env ~old_name:name ~new_name:(Env.quarantined name)

let log_keys env name =
  List.map (fun (_off, (e : Kv_iter.entry)) -> e.key) (Log_file.Reader.entries env name)

let min_string = function
  | [] -> ""
  | k :: rest -> List.fold_left min k rest

(* Rebuild an SSTable from its CRC-verified blocks. For a funk the log
   still covers its keyspace, so the log's smallest key participates in
   the min-key reconstruction when the header checksum is gone. *)
let rebuild_sst env name ~companion_log =
  let recovered_min, entries = Sstable.Reader.salvage env name in
  quarantine env name;
  let min_key =
    match recovered_min with
    | Some k -> k
    | None ->
      let candidates =
        List.map (fun (e : Kv_iter.entry) -> e.key) entries
        @ (match companion_log with Some l -> log_keys env l | None -> [])
      in
      min_string candidates
  in
  let b = Sstable.Builder.create env ~name ~min_key () in
  List.iter (Sstable.Builder.add b) entries;
  Sstable.Builder.finish b;
  Printf.sprintf "quarantined and rebuilt from %d salvaged entries (min-key %S)"
    (List.length entries) min_key

let rebuild_missing_sst env name ~companion_log =
  let min_key =
    match companion_log with Some l -> min_string (log_keys env l) | None -> ""
  in
  let b = Sstable.Builder.create env ~name ~min_key () in
  Sstable.Builder.finish b;
  Printf.sprintf "recreated empty (min-key %S); its log still serves reads" min_key

let rewrite_log env name =
  let entries = Log_file.Reader.entries env name in
  quarantine env name;
  let w = Log_file.Writer.create env name in
  List.iter (fun (_off, e) -> ignore (Log_file.Writer.append w e)) entries;
  Log_file.Writer.fsync w;
  Log_file.Writer.close w;
  Printf.sprintf "quarantined and rewrote %d valid records" (List.length entries)

let rewrite_mode env =
  Layout.store_mode env Config.Async;
  "reset to async (conservative: only checkpointed data is trusted)"

(* Rebuild the manifest from the funk files actually present (run after
   the per-file repairs, so every surviving SSTable opens). *)
let rebuild_manifest env =
  if Env.exists env Manifest.file_name then quarantine env Manifest.file_name;
  let ids =
    List.sort_uniq compare
      (List.filter_map
         (fun n -> match Layout.classify n with Layout.Funk (id, Layout.Sst) -> Some id | _ -> None)
         (Env.list_files env))
  in
  let min_keys =
    List.filter_map
      (fun id ->
        try Some (id, Sstable.Reader.chunk_min_key (Sstable.Reader.open_ env (Layout.sst_name id)))
        with Env.Corruption _ -> None)
      ids
  in
  let openable = List.map fst min_keys and has_sentinel = List.exists (fun (_, k) -> k = "") min_keys in
  let next_id = 1 + List.fold_left max (-1) openable in
  let live, next_id =
    if has_sentinel then (openable, next_id)
    else begin
      (* No sentinel survived: fabricate an empty one so the store
         opens; its range is served (empty) until data is re-ingested. *)
      let b = Sstable.Builder.create env ~name:(Layout.sst_name next_id) ~min_key:"" () in
      Sstable.Builder.finish b;
      Log_file.Writer.close (Log_file.Writer.create env (Layout.log_name next_id));
      (openable @ [ next_id ], next_id + 1)
    end
  in
  Manifest.store env { Manifest.next_id; live };
  Printf.sprintf "rebuilt from directory: %d live funks, next id %d" (List.length live) next_id

(* A rebuilt funk's min-key is a guess (smallest surviving key) — safe
   anywhere except the sentinel, whose true min-key is "". If no live
   funk carries the sentinel after the per-file repairs, the smallest
   chunk's range is extended down to "": keys below its first real key
   route to it and correctly read as absent. *)
let ensure_sentinel env =
  match (try Manifest.load env with Env.Corruption _ -> None) with
  | None -> None
  | Some m -> (
    let readable =
      List.filter_map
        (fun id ->
          try Some (id, Sstable.Reader.open_ env (Layout.sst_name id)) with Env.Corruption _ -> None)
        m.Manifest.live
    in
    if readable = [] || List.exists (fun (_, r) -> Sstable.Reader.chunk_min_key r = "") readable
    then None
    else begin
      let id, r =
        List.fold_left
          (fun (bi, br) (i, cand) ->
            if Sstable.Reader.chunk_min_key cand < Sstable.Reader.chunk_min_key br then (i, cand)
            else (bi, br))
          (List.hd readable) (List.tl readable)
      in
      let name = Layout.sst_name id in
      let tmp = Layout.tmp_name name in
      let b = Sstable.Builder.create env ~name:tmp ~min_key:"" () in
      List.iter (Sstable.Builder.add b) (Kv_iter.to_list (Sstable.Reader.iter r));
      Sstable.Builder.finish b;
      Env.rename env ~old_name:tmp ~new_name:name;
      Some (name, "promoted to sentinel: min-key extended down to \"\"")
    end)

let repair_namespace ns =
  let env = ns.env in
  let actions = ref [] in
  let act file what = actions := (file, what) :: !actions in
  let quarantine_as name what =
    quarantine env name;
    act name ("quarantined" ^ what)
  in
  let manifest_needs_rebuild = ref false in
  (* One repair per file even when it has several findings. *)
  let seen = Hashtbl.create 16 in
  (* One drop per snapshot even when several members are damaged. *)
  let dropped_snapshots = Hashtbl.create 4 in
  let drop_snapshot id reason =
    if not (Hashtbl.mem dropped_snapshots id) then begin
      Hashtbl.replace dropped_snapshots id ();
      Snapshot.drop env ~id;
      act
        (Env.snapshot_member ~id "")
        (Printf.sprintf
           "snapshot %s dropped (%s); a snapshot is a derived artifact — re-snapshot the \
            live store instead of repairing a damaged cut"
           id reason)
    end
  in
  List.iter
    (fun f ->
      if not (Hashtbl.mem seen f.f_file) then begin
        Hashtbl.replace seen f.f_file ();
        let name = f.f_file in
        match (classify name, f.f_kind) with
        | _, Leftover_tmp ->
          Env.delete env name;
          act name "deleted leftover temporary file"
        | Store (Layout.Funk (id, Layout.Sst)), Missing_file ->
          act name (rebuild_missing_sst env name ~companion_log:(Some (Layout.log_name id)))
        | Store (Layout.Funk (id, Layout.Sst)), _ ->
          act name (rebuild_sst env name ~companion_log:(Some (Layout.log_name id)))
        | Store (Layout.Funk (_, Layout.Log)), Missing_file ->
          act name "treated as empty (recovery recreates it)"
        | Store (Layout.Funk (_, Layout.Log)), _ | Baseline (Lsm_tree.Wal _), _ ->
          act name (rewrite_log env name)
        | Baseline (Lsm_tree.Sst _), _ -> act name (rebuild_sst env name ~companion_log:None)
        | Store Layout.Manifest, _ -> manifest_needs_rebuild := true
        | Baseline Lsm_tree.Manifest, _ ->
          quarantine_as name
            " (unrepairable without its engine; the store reopens empty — recover the \
             quarantined copy manually)"
        | Store Layout.Checkpoint, _ ->
          quarantine_as name
            "; recovery treats the last epoch as uncheckpointed (async-mode writes since the \
             previous checkpoint become invisible)"
        | Store Layout.Recovery_table, _ ->
          quarantine_as name "; visibility of previous epochs' uncheckpointed writes is lost"
        | Store Layout.Mode, _ -> act name (rewrite_mode env)
        | Store Layout.Shards, _ ->
          act name "left in place: the split keys cannot be rebuilt from the shards"
        | Store (Layout.Snapshot (id, member)), _ ->
          (* Healthy members are never touched (their findings filter out
             above); a damaged member poisons the whole cut. *)
          drop_snapshot id
            (if member = Snapshot.complete_name then "COMPLETE marker unreadable"
             else "damaged member")
        | Backup_archive, _ ->
          quarantine_as name
            " (damaged archive breaks the restore chain; re-ship from a live snapshot)"
        | Store Layout.Repl_lsn, _ ->
          quarantine_as name
            "; the follower re-applies from LSN 0 (stream applies are idempotent)"
        | Journal_segment _, _ ->
          quarantine_as name
            " (observational history only; the live sampler starts a fresh segment)"
        | (Store _ | Unknown), _ -> ()
      end)
    (List.filter (fun f -> f.f_kind <> Orphan) (namespace_findings ns));
  (* Manifest last: missing-file repairs above may have recreated the
     very files a rebuilt manifest should reference. *)
  if !manifest_needs_rebuild then act Manifest.file_name (rebuild_manifest env);
  (match ensure_sentinel env with
  | Some (file, what) -> act file what
  | None -> ());
  List.rev_map (fun (file, what) -> (ns.qualify file, what)) !actions

let repair env =
  let actions = List.concat_map repair_namespace (namespaces env) in
  let files_checked, findings = scrub_findings env in
  { files_checked; findings; actions }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let severity_name = function Error -> "error" | Warning -> "warning"

let kind_name = function
  | Bad_checksum -> "bad-checksum"
  | Structural -> "structural"
  | Log_garbage -> "log-garbage"
  | Missing_file -> "missing-file"
  | Orphan -> "orphan"
  | Leftover_tmp -> "leftover-tmp"
  | Unknown_file -> "unknown-file"

let pp_report ppf r =
  Format.fprintf ppf "scrubbed %d files: %d findings@." r.files_checked (List.length r.findings);
  List.iter
    (fun f ->
      Format.fprintf ppf "  [%s] %s: %s (%s)@." (severity_name f.f_severity) f.f_file f.f_detail
        (kind_name f.f_kind))
    r.findings;
  List.iter (fun (file, what) -> Format.fprintf ppf "  repair %s: %s@." file what) r.actions
