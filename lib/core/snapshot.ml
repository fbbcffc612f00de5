open Evendb_util
open Evendb_storage
open Evendb_sstable
open Evendb_log

(* A published snapshot is a directory of pinned copies:

     snapshots/<id>/MANIFEST         funk ids in the snapshot
     snapshots/<id>/CHECKPOINT       the snapshot's version cut
     snapshots/<id>/RECOVERY_TABLE   source visibility for past epochs
     snapshots/<id>/MODE             always "async" (see below)
     snapshots/<id>/funk_*.sst|.log  the funk set, logs clipped
     snapshots/<id>/COMPLETE         publish marker, written last

   The copied logs may carry a few records *newer* than the cut (puts
   racing the publish); they are neutralized by visibility, not by
   byte-exact clipping: the snapshot's checkpoint records the cut
   version [v], and both the reader below and a restored store (MODE =
   async ⇒ recovery clips at the checkpoint) treat every record above
   [v] as invisible. COMPLETE is written last via tmp+fsync+rename, so
   a crash mid-publish leaves a directory without it — recovery's
   sweep deletes such half-published snapshots wholesale. *)

let complete_name = "COMPLETE"
let member = Env.snapshot_member

let validate_id id =
  let ok_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = '.'
  in
  if id = "" || id = "." || id = ".." || not (String.for_all ok_char id) then
    invalid_arg (Printf.sprintf "Snapshot: invalid id %S" id)

type info = {
  id : string;
  version : int; (* the cut: records above this are not in the snapshot *)
  next_id : int; (* source's next funk id at publish *)
  funks : (int * int) list; (* funk id, clipped log length *)
}

(* ------------------------------------------------------------------ *)
(* COMPLETE marker codec (varint payload + CRC32C LE trailer)          *)

let store_complete env info =
  let buf = Buffer.create 64 in
  Varint.write buf info.version;
  Varint.write buf info.next_id;
  Varint.write buf (List.length info.funks);
  List.iter
    (fun (id, len) ->
      Varint.write buf id;
      Varint.write buf len)
    info.funks;
  Meta_file.store env ~name:(member ~id:info.id complete_name) (Buffer.contents buf)

let load_complete env ~id =
  Meta_file.decode env ~name:(member ~id complete_name) (fun payload ->
      let version, pos = Varint.read payload 0 in
      let next_id, pos = Varint.read payload pos in
      let n, pos = Varint.read payload pos in
      let rec funks acc pos = function
        | 0 -> List.rev acc
        | k ->
          let fid, pos = Varint.read payload pos in
          let len, pos = Varint.read payload pos in
          funks ((fid, len) :: acc) pos (k - 1)
      in
      { id; version; next_id; funks = funks [] pos n })

(* ------------------------------------------------------------------ *)
(* Namespace enumeration                                               *)

let member_names env ~id =
  List.filter
    (fun name ->
      match Env.split_snapshot name with Some (i, _) -> i = id | None -> false)
    (Env.list_files env)

let all_ids env =
  List.filter_map Env.split_snapshot (Env.list_files env)
  |> List.map fst
  |> List.sort_uniq String.compare

let exists env ~id = Env.exists env (member ~id complete_name)

let list env =
  List.filter_map
    (fun id -> try load_complete env ~id with Env.Corruption _ -> None)
    (all_ids env)
  |> List.sort (fun a b -> compare (a.version, a.id) (b.version, b.id))

let drop env ~id = List.iter (fun name -> Env.delete env name) (member_names env ~id)

let published env =
  (* A valid COMPLETE pins the whole directory; anything else under the
     id — including a crashed half-publish with no (or corrupt) marker
     — is garbage (see {!Layout.swept}). One marker read per id. *)
  let known = Hashtbl.create 4 in
  fun id ->
    match Hashtbl.find_opt known id with
    | Some ok -> ok
    | None ->
      let ok = try load_complete env ~id <> None with Env.Corruption _ -> false in
      Hashtbl.replace known id ok;
      ok

(* ------------------------------------------------------------------ *)
(* Publish: copy the pinned funk set, then the metadata, COMPLETE last *)

let copy_file env ~src ~dst ~len =
  let out = Env.create env dst in
  (try
     let step = 64 * 1024 in
     let rec go off =
       if off < len then begin
         let n = min step (len - off) in
         Env.append out (Env.read_at env src ~off ~len:n);
         go (off + n)
       end
     in
     go 0;
     Env.fsync out;
     Env.close_file out
   with exn ->
     Env.close_file out;
     (try Env.delete env dst with _ -> ());
     raise exn)

let publish env ~id ~version ~next_id ~rt funks =
  let members =
    List.map
      (fun f ->
        let fid = Funk.id f in
        let log_len = Funk.log_size f in
        let sst = Layout.sst_name fid and log = Layout.log_name fid in
        copy_file env ~src:sst ~dst:(member ~id sst) ~len:(Env.size env sst);
        copy_file env ~src:log ~dst:(member ~id log) ~len:log_len;
        (fid, log_len))
      funks
  in
  Manifest.store ~name:(member ~id Manifest.file_name) env
    { Manifest.next_id; live = List.map fst members };
  Recovery_table.store ~name:(member ~id Recovery_table.file_name) env rt;
  Checkpoint_file.store ~name:(member ~id Checkpoint_file.file_name) env ~version;
  (* Always Async: a store restored from these files must clip
     visibility at the snapshot checkpoint, never trust whole logs. *)
  Layout.store_mode ~name:(member ~id Layout.mode_file) env Config.Async;
  let info = { id; version; next_id; funks = members } in
  store_complete env info;
  info

let enforce_retention env ~max_retained =
  if max_retained <= 0 then 0
  else begin
    let infos = list env in
    let excess = List.length infos - max_retained in
    List.iteri (fun i s -> if i < excess then drop env ~id:s.id) infos;
    max 0 excess
  end

(* ------------------------------------------------------------------ *)
(* Reader: a point-in-time read-only view over the pinned files        *)

type reader = {
  r_visible : int -> bool;
  r_funks : (Sstable.Reader.t * Env.t * string) list; (* sst reader, env, log name *)
}

let open_reader env ~id =
  match load_complete env ~id with
  | None -> invalid_arg (Printf.sprintf "Snapshot.open_reader: no snapshot %S" id)
  | Some info ->
    let v = info.version in
    let rt = Recovery_table.load ~name:(member ~id Recovery_table.file_name) env in
    (* Fold the cut into the table: the cut epoch is visible only up to
       the cut's sequence, and no epoch beyond it exists in the view. *)
    let rt = Recovery_table.add rt ~epoch:(Version.epoch v) ~last_seq:(Version.seq v) in
    let visible w = Recovery_table.is_visible rt ~current_epoch:(Version.epoch v + 1) w in
    let funks =
      List.map
        (fun (fid, _len) ->
          let sst = Sstable.Reader.open_ env (member ~id (Layout.sst_name fid)) in
          (sst, env, member ~id (Layout.log_name fid)))
        info.funks
    in
    { r_visible = visible; r_funks = funks }

let scan r ~low ~high =
  let in_range k = String.compare low k <= 0 && String.compare k high <= 0 in
  let iters =
    List.concat_map
      (fun (sst, env, log_name) ->
        let log_entries =
          Log_file.Reader.fold env log_name ~init:[] ~f:(fun acc _off (e : Kv_iter.entry) ->
              if in_range e.key && r.r_visible e.version then e :: acc else acc)
          |> List.sort Kv_iter.compare_entries
        in
        let sst_it =
          Kv_iter.filter
            (fun (e : Kv_iter.entry) -> in_range e.key && r.r_visible e.version)
            (Sstable.Reader.iter_from sst low)
        in
        [ Kv_iter.of_list log_entries; sst_it ])
      r.r_funks
  in
  (* Funk ranges can overlap in snapshots taken by earlier builds (a
     funk a split shared between its children, plus the successor one
     child had flushed); dedup keeps the newest version per key across
     the whole set. *)
  let merged = Kv_iter.dedup (Kv_iter.merge iters) in
  let rec collect acc =
    match merged () with
    | None -> List.rev acc
    | Some { Kv_iter.key; value = Some v; _ } when String.compare key high <= 0 ->
      collect ((key, v) :: acc)
    | Some { Kv_iter.value = None; _ } -> collect acc
    | Some _ -> List.rev acc
  in
  collect []

let get r key =
  match scan r ~low:key ~high:key with [] -> None | (_, v) :: _ -> Some v
