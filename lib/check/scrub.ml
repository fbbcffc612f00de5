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

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

type file_class =
  | Funk_sst of int
  | Funk_log of int
  | Baseline_sst  (* lsm_*.sst / flsm_*.sst *)
  | Baseline_log  (* lsm_wal_*.log / flsm_wal_*.log *)
  | Evendb_manifest
  | Baseline_manifest  (* LSM_MANIFEST / FLSM_MANIFEST *)
  | Checkpoint
  | Recovery_table
  | Mode
  | Snapshot_complete of string  (* snapshots/<id>/COMPLETE *)
  | Snapshot_member of string * string  (* snapshot id, bare member name *)
  | Backup_archive  (* backup_*.evbk *)
  | Repl_watermark  (* REPL_LSN *)
  | Follower_marker  (* FOLLOWER *)
  | Fenced_marker  (* FENCED *)
  | Telemetry_journal of int  (* telemetry/metrics_*.mj *)
  | Tmp
  | Unknown

let rec classify name =
  if Filename.check_suffix name ".tmp" then Tmp
  else if Env.is_telemetry name then
    match Evendb_telemetry.Journal.parse_segment_name name with
    | Some i -> Telemetry_journal i
    | None -> Unknown
  else
    match Env.split_snapshot name with
    | Some (id, member) ->
      if member = Snapshot.complete_name then Snapshot_complete id
      else Snapshot_member (id, member)
    | None ->
      classify_flat name

and classify_flat name =
  if name = Manifest.file_name then Evendb_manifest
  else if name = "LSM_MANIFEST" || name = "FLSM_MANIFEST" then Baseline_manifest
  else if name = Checkpoint_file.file_name then Checkpoint
  else if name = Recovery_table.file_name then Recovery_table
  else if name = "MODE" then Mode
  else if name = "REPL_LSN" then Repl_watermark
  else if name = "FOLLOWER" then Follower_marker
  else if name = "FENCED" then Fenced_marker
  else if Backup.parse_archive_name name <> None then Backup_archive
  else
    match Scanf.sscanf_opt name "funk_%8d.sst%!" (fun id -> id) with
    | Some id -> Funk_sst id
    | None -> (
      match Scanf.sscanf_opt name "funk_%8d.log%!" (fun id -> id) with
      | Some id -> Funk_log id
      | None ->
        if
          Scanf.sscanf_opt name "lsm_wal_%d.log%!" (fun g -> g) <> None
          || Scanf.sscanf_opt name "flsm_wal_%d.log%!" (fun g -> g) <> None
        then Baseline_log
        else if
          Scanf.sscanf_opt name "lsm_%d.sst%!" (fun f -> f) <> None
          || Scanf.sscanf_opt name "flsm_%d.sst%!" (fun f -> f) <> None
        then Baseline_sst
        else Unknown)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

(* Every metadata file shares the same frame: payload + CRC32C LE. *)
let check_crc_trailer env name =
  match Meta_file.load env ~name with
  | _ -> []
  | exception Env.Corruption c ->
    [ { f_file = name; f_severity = Error; f_kind = Bad_checksum; f_detail = c.c_detail } ]

let check_sst env name =
  try
    let r = Sstable.Reader.open_ env name in
    Sstable.Reader.verify r;
    []
  with Env.Corruption c ->
    [ { f_file = name; f_severity = Error; f_kind = Bad_checksum; f_detail = c.c_detail } ]

let check_log env name =
  List.map
    (fun (lo, hi) ->
      {
        f_file = name;
        f_severity = Warning;
        f_kind = Log_garbage;
        f_detail = Printf.sprintf "undecodable bytes [%d, %d)" lo hi;
      })
    (Log_file.Reader.garbage_regions env name)

let check_mode env name =
  match Env.read_all env name with
  | "sync" | "async" -> []
  | other ->
    Env.note_corruption env;
    [
      {
        f_file = name;
        f_severity = Error;
        f_kind = Structural;
        f_detail = Printf.sprintf "unrecognized persistence mode %S" other;
      };
    ]

(* A member of a *published* snapshot is checked like its live-store
   counterpart — same formats, frozen names. The snapshot MANIFEST is
   only CRC-validated: its funk ids reference the snapshot's own copies,
   never the live store, so cross-file checks against the live layout
   would be meaningless. *)
let check_snapshot_member env name ~member =
  match classify_flat member with
  | Funk_sst _ | Baseline_sst -> check_sst env name
  | Funk_log _ | Baseline_log -> check_log env name
  | Evendb_manifest | Checkpoint | Recovery_table -> check_crc_trailer env name
  | Mode -> check_mode env name
  | _ ->
    [
      {
        f_file = name;
        f_severity = Warning;
        f_kind = Unknown_file;
        f_detail = "unexpected member of a published snapshot";
      };
    ]

(* Cross-file referential integrity of the EvenDB layout: every
   manifest-live funk id must resolve to its files, and the sentinel
   ""-min-key funk must exist (recovery refuses to start without it). *)
let check_manifest_refs env (manifest : Manifest.t) ~funk_ssts ~funk_logs =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let mention sev kind file detail =
    add { f_file = file; f_severity = sev; f_kind = kind; f_detail = detail }
  in
  let live = manifest.Manifest.live in
  List.iter
    (fun id ->
      if not (List.mem id funk_ssts) then
        mention Error Missing_file (Funk.sst_name id) "manifest-live funk SSTable missing";
      if not (List.mem id funk_logs) then
        mention Error Missing_file (Funk.log_name id) "manifest-live funk log missing")
    live;
  List.iter
    (fun id ->
      if not (List.mem id live) then
        mention Warning Orphan (Funk.sst_name id) "funk not referenced by the manifest")
    (List.filter (fun id -> not (List.mem id live)) funk_ssts);
  (* Sentinel check only when every live SSTable is readable — a corrupt
     one is already reported and may well be the sentinel. *)
  let min_keys =
    List.filter_map
      (fun id ->
        if List.mem id funk_ssts then
          try Some (Sstable.Reader.chunk_min_key (Sstable.Reader.open_ env (Funk.sst_name id)))
          with Env.Corruption _ -> None
        else None)
      live
  in
  if
    live <> []
    && List.length min_keys = List.length live
    && not (List.mem "" min_keys)
  then
    mention Error Structural Manifest.file_name "no live funk carries the sentinel \"\" min-key";
  List.rev !findings

let scrub_findings env =
  let files = List.filter (fun n -> not (Env.is_quarantined n)) (Env.list_files env) in
  let funk_ssts = List.filter_map (fun n -> match classify n with Funk_sst id -> Some id | _ -> None) files in
  let funk_logs = List.filter_map (fun n -> match classify n with Funk_log id -> Some id | _ -> None) files in
  (* The newest journal segment may legitimately end mid-frame (crash
     between append and fsync) — a torn tail there is a warning, the
     same damage in an older segment is real corruption. *)
  let telem_max =
    List.fold_left
      (fun acc n -> match classify n with Telemetry_journal i -> max acc i | _ -> acc)
      (-1) files
  in
  let per_file =
    List.concat_map
      (fun name ->
        match classify name with
        | Funk_sst _ | Baseline_sst -> check_sst env name
        | Funk_log _ | Baseline_log -> check_log env name
        | Evendb_manifest -> (
          match Manifest.load env with
          | Some m -> check_manifest_refs env m ~funk_ssts ~funk_logs
          | None -> []
          | exception Env.Corruption c ->
            [ { f_file = name; f_severity = Error; f_kind = Bad_checksum; f_detail = c.c_detail } ])
        | Baseline_manifest | Recovery_table | Checkpoint -> check_crc_trailer env name
        | Mode -> check_mode env name
        | Snapshot_complete id -> (
          match Snapshot.load_complete env ~id with
          | _ -> []
          | exception Env.Corruption c ->
            [ { f_file = name; f_severity = Error; f_kind = Bad_checksum; f_detail = c.c_detail } ])
        | Snapshot_member (id, member) ->
          if not (Snapshot.exists env ~id) then
            [
              {
                f_file = name;
                f_severity = Warning;
                f_kind = Orphan;
                f_detail = "member of a half-published snapshot (no COMPLETE marker); the \
                            recovery sweep drops it";
              };
            ]
          else check_snapshot_member env name ~member
        | Backup_archive -> (
          match Backup.verify env name with
          | () -> []
          | exception Env.Corruption c ->
            [ { f_file = name; f_severity = Error; f_kind = Bad_checksum; f_detail = c.c_detail } ])
        | Repl_watermark ->
          (* varint LSN + CRC32C trailer — the shared metadata frame. *)
          check_crc_trailer env name
        | Follower_marker | Fenced_marker ->
          (* Presence alone carries the meaning; content is free-form. *)
          []
        | Telemetry_journal i -> (
          match (Evendb_telemetry.Journal.check env name).ck_error with
          | None -> []
          | Some detail when i = telem_max ->
            [
              {
                f_file = name;
                f_severity = Warning;
                f_kind = Log_garbage;
                f_detail =
                  detail ^ " (torn journal tail — expected after a crash; replay stops here)";
              };
            ]
          | Some detail ->
            Env.note_corruption env;
            [ { f_file = name; f_severity = Error; f_kind = Bad_checksum; f_detail = detail } ])
        | Tmp ->
          [
            {
              f_file = name;
              f_severity = Warning;
              f_kind = Leftover_tmp;
              f_detail = "leftover temporary file (interrupted write-then-rename)";
            };
          ]
        | Unknown ->
          [
            {
              f_file = name;
              f_severity = Warning;
              f_kind = Unknown_file;
              f_detail = "name matches no known layout";
            };
          ])
      files
  in
  ( List.length files,
    List.sort (fun a b -> compare (a.f_file, a.f_detail) (b.f_file, b.f_detail)) per_file )

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
  Meta_file.publish env ~name:"MODE" "async";
  "reset to \"async\" (conservative: only checkpointed data is trusted)"

(* Rebuild the manifest from the funk files actually present (run after
   the per-file repairs, so every surviving SSTable opens). *)
let rebuild_manifest env =
  if Env.exists env Manifest.file_name then quarantine env Manifest.file_name;
  let files = List.filter (fun n -> not (Env.is_quarantined n)) (Env.list_files env) in
  let ids =
    List.sort_uniq compare
      (List.filter_map
         (fun n -> match classify n with Funk_sst id -> Some id | _ -> None)
         files)
  in
  let openable =
    List.filter
      (fun id ->
        match Sstable.Reader.open_ env (Funk.sst_name id) with
        | _ -> true
        | exception Env.Corruption _ -> false)
      ids
  in
  let has_sentinel =
    List.exists
      (fun id -> Sstable.Reader.chunk_min_key (Sstable.Reader.open_ env (Funk.sst_name id)) = "")
      openable
  in
  let next_id = 1 + List.fold_left max (-1) openable in
  let live, next_id =
    if has_sentinel then (openable, next_id)
    else begin
      (* No sentinel survived: fabricate an empty one so the store
         opens; its range is served (empty) until data is re-ingested. *)
      let b = Sstable.Builder.create env ~name:(Funk.sst_name next_id) ~min_key:"" () in
      Sstable.Builder.finish b;
      Log_file.Writer.close (Log_file.Writer.create env (Funk.log_name next_id));
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
          try Some (id, Sstable.Reader.open_ env (Funk.sst_name id)) with Env.Corruption _ -> None)
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
      let name = Funk.sst_name id in
      let tmp = name ^ ".rebuild.tmp" in
      let b = Sstable.Builder.create env ~name:tmp ~min_key:"" () in
      let it = Sstable.Reader.iter r in
      let rec drain () =
        match it () with
        | Some e ->
          Sstable.Builder.add b e;
          drain ()
        | None -> ()
      in
      drain ();
      Sstable.Builder.finish b;
      Env.rename env ~old_name:tmp ~new_name:name;
      Some (name, "promoted to sentinel: min-key extended down to \"\"")
    end)

let repair env =
  let _, findings = scrub_findings env in
  let actions = ref [] in
  let act file what = actions := (file, what) :: !actions in
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
        | Funk_sst id, Missing_file ->
          act name (rebuild_missing_sst env name ~companion_log:(Some (Funk.log_name id)))
        | Funk_sst id, _ -> act name (rebuild_sst env name ~companion_log:(Some (Funk.log_name id)))
        | Funk_log _, Missing_file -> act name "treated as empty (recovery recreates it)"
        | Funk_log _, _ -> act name (rewrite_log env name)
        | Baseline_sst, _ -> act name (rebuild_sst env name ~companion_log:None)
        | Baseline_log, _ -> act name (rewrite_log env name)
        | Evendb_manifest, (Bad_checksum | Structural) -> manifest_needs_rebuild := true
        | Evendb_manifest, _ -> ()
        | Baseline_manifest, _ ->
          quarantine env name;
          act name
            "quarantined (unrepairable without its engine; the store reopens empty — recover \
             the quarantined copy manually)"
        | Checkpoint, _ ->
          quarantine env name;
          act name
            "quarantined; recovery treats the last epoch as uncheckpointed (async-mode writes \
             since the previous checkpoint become invisible)"
        | Recovery_table, _ ->
          quarantine env name;
          act name
            "quarantined; visibility of previous epochs' uncheckpointed writes is lost"
        | Mode, _ -> act name (rewrite_mode env)
        | Snapshot_complete id, _ -> drop_snapshot id "COMPLETE marker unreadable"
        | Snapshot_member (id, _), _ ->
          (* Healthy members are never touched (their findings filter out
             above); a damaged member poisons the whole cut. *)
          drop_snapshot id "damaged member"
        | Backup_archive, _ ->
          quarantine env name;
          act name
            "quarantined (damaged archive breaks the restore chain; re-ship from a live \
             snapshot)"
        | Repl_watermark, _ ->
          quarantine env name;
          act name
            "quarantined; the follower re-applies from LSN 0 (stream applies are idempotent)"
        | (Follower_marker | Fenced_marker), _ -> ()
        | Telemetry_journal _, _ ->
          quarantine env name;
          act name
            "quarantined (observational history only; the live sampler starts a fresh \
             segment)"
        | Tmp, _ ->
          Env.delete env name;
          act name "deleted leftover temporary file"
        | Unknown, _ -> ()
      end)
    (List.filter (fun f -> f.f_kind <> Orphan) findings);
  (* Manifest last: missing-file repairs above may have recreated the
     very files a rebuilt manifest should reference. *)
  if !manifest_needs_rebuild then act Manifest.file_name (rebuild_manifest env);
  (match ensure_sentinel env with
  | Some (file, what) -> act file what
  | None -> ());
  let files_checked, remaining = scrub_findings env in
  { files_checked; findings = remaining; actions = List.rev !actions }

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
