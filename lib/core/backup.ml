open Evendb_util
open Evendb_storage
module Obs = Evendb_obs.Obs

(* Self-describing backup archives, one file per shipped segment:

     backup_<seq>.evbk :=
       "EVBK1"
       varint header_len · header · data
       u32 CRC32C over everything before the trailer

     header :=
       varint format (1)
       string snapshot_id          (varint len · bytes)
       varint has_base · [string base_id]
       varint version              (the snapshot's cut)
       varint n_entries
       entry* := string name · varint kind · varint base_len
                 · varint data_len · u32 data_crc

   [kind]: 0 = full content shipped, 1 = log suffix shipped (the first
   [base_len] bytes come from the restored base), 2 = carried unchanged
   from the base. The entry list is the segment's COMPLETE file set:
   restore drops any file of the previous state that a segment does not
   mention, which is how a funk deleted between two snapshots
   disappears from the restored store.

   An interrupted ship leaves only a [*.tmp] in the destination (the
   archive is published tmp+fsync+rename); a torn or bit-flipped
   archive fails its CRC at restore. Either way a damaged chain is
   rejected wholesale rather than restored partially. *)

let magic = "EVBK1"
let format_version = 1

let archive_name seq = Printf.sprintf "backup_%08d.evbk" seq

let parse_archive_name name = Scanf.sscanf_opt name "backup_%8d.evbk%!" (fun seq -> seq)

let list_archives env =
  Env.list_files env
  |> List.filter_map (fun name ->
         match parse_archive_name name with Some seq -> Some (seq, name) | None -> None)
  |> List.sort compare

type kind = Full | Log_suffix of int (* base_len *) | Carried

type entry = {
  e_name : string;
  e_kind : kind;
  e_data_len : int;
  e_data_crc : int32;
}

type header = {
  h_snapshot : string;
  h_base : string option;
  h_version : int;
  h_entries : entry list;
}

type stats = { funks_shipped : int; bytes_shipped : int }

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let write_string buf s =
  Varint.write buf (String.length s);
  Buffer.add_string buf s

let read_string s pos =
  let len, pos = Varint.read s pos in
  if pos + len > String.length s then invalid_arg "Backup: string out of bounds";
  (String.sub s pos len, pos + len)

let encode_header h =
  let buf = Buffer.create 256 in
  Varint.write buf format_version;
  write_string buf h.h_snapshot;
  (match h.h_base with
  | None -> Varint.write buf 0
  | Some b ->
    Varint.write buf 1;
    write_string buf b);
  Varint.write buf h.h_version;
  Varint.write buf (List.length h.h_entries);
  List.iter
    (fun e ->
      write_string buf e.e_name;
      (match e.e_kind with
      | Full ->
        Varint.write buf 0;
        Varint.write buf 0
      | Log_suffix base_len ->
        Varint.write buf 1;
        Varint.write buf base_len
      | Carried ->
        Varint.write buf 2;
        Varint.write buf 0);
      Varint.write buf e.e_data_len;
      Buffer.add_string buf (Meta_file.crc_to_string e.e_data_crc))
    h.h_entries;
  Buffer.contents buf

let decode_header s =
  let v, pos = Varint.read s 0 in
  if v <> format_version then invalid_arg "Backup: unknown format version";
  let snapshot, pos = read_string s pos in
  let has_base, pos = Varint.read s pos in
  let base, pos =
    if has_base = 0 then (None, pos)
    else
      let b, pos = read_string s pos in
      (Some b, pos)
  in
  let version, pos = Varint.read s pos in
  let n, pos = Varint.read s pos in
  let rec entries acc pos = function
    | 0 -> List.rev acc
    | k ->
      let name, pos = read_string s pos in
      let kind, pos = Varint.read s pos in
      let base_len, pos = Varint.read s pos in
      let data_len, pos = Varint.read s pos in
      if pos + 4 > String.length s then invalid_arg "Backup: entry crc out of bounds";
      let crc = Meta_file.crc_of_string s pos in
      let kind =
        match kind with
        | 0 -> Full
        | 1 -> Log_suffix base_len
        | 2 -> Carried
        | _ -> invalid_arg "Backup: unknown entry kind"
      in
      entries
        ({ e_name = name; e_kind = kind; e_data_len = data_len; e_data_crc = crc } :: acc)
        (pos + 4) (k - 1)
  in
  { h_snapshot = snapshot; h_base = base; h_version = version; h_entries = entries [] pos n }

(* Read and structurally validate one archive; returns the header plus
   the data section. *)
let read_archive env name =
  let data = Env.read_all env name in
  let fail detail = Meta_file.corrupt env ~name detail in
  if String.length data < String.length magic + 4 then fail "truncated";
  if String.sub data 0 (String.length magic) <> magic then fail "bad magic";
  let body = String.sub data 0 (String.length data - 4) in
  if Crc32c.string body <> Meta_file.crc_of_string data (String.length data - 4) then
    fail "bad checksum";
  match
    let hlen, pos = Varint.read body (String.length magic) in
    if pos + hlen > String.length body then invalid_arg "Backup: header out of bounds";
    let header = decode_header (String.sub body pos hlen) in
    let payload = String.sub body (pos + hlen) (String.length body - pos - hlen) in
    let total = List.fold_left (fun acc e -> acc + e.e_data_len) 0 header.h_entries in
    if total <> String.length payload then invalid_arg "Backup: data section length mismatch";
    (header, payload)
  with
  | result -> result
  | exception Invalid_argument _ -> fail "malformed archive"

let verify env name = ignore (read_archive env name)

(* ------------------------------------------------------------------ *)
(* Ship                                                                *)

let meta_members =
  [ Manifest.file_name; Checkpoint_file.file_name; Recovery_table.file_name; Layout.mode_file ]

let ship ?obs ~src ~dest ~snapshot_id ?base_id () =
  let snap =
    match Snapshot.load_complete src ~id:snapshot_id with
    | Some info -> info
    | None -> invalid_arg (Printf.sprintf "Backup.ship: no snapshot %S" snapshot_id)
  in
  let base =
    match base_id with
    | None -> None
    | Some id -> (
      match Snapshot.load_complete src ~id with
      | Some info -> Some info
      | None -> invalid_arg (Printf.sprintf "Backup.ship: no base snapshot %S" id))
  in
  let base_logs = Hashtbl.create 16 in
  (match base with
  | Some b -> List.iter (fun (fid, len) -> Hashtbl.replace base_logs fid len) b.Snapshot.funks
  | None -> ());
  let member name = Snapshot.member ~id:snapshot_id name in
  let data = Buffer.create 4096 in
  let funks_shipped = ref 0 in
  let full name content =
    Buffer.add_string data content;
    {
      e_name = name;
      e_kind = Full;
      e_data_len = String.length content;
      e_data_crc = Crc32c.string content;
    }
  in
  let meta_entries = List.map (fun name -> full name (Env.read_all src (member name))) meta_members in
  let funk_entries =
    List.concat_map
      (fun (fid, log_len) ->
        let sst = Layout.sst_name fid and log = Layout.log_name fid in
        match Hashtbl.find_opt base_logs fid with
        | Some base_len when base_len <= log_len ->
          (* Shared with the base: the SSTable is immutable, the log is
             append-only — ship only the suffix grown since the base. *)
          let suffix =
            if log_len = base_len then ""
            else Env.read_at src (member log) ~off:base_len ~len:(log_len - base_len)
          in
          Buffer.add_string data suffix;
          if suffix <> "" then incr funks_shipped;
          [
            { e_name = sst; e_kind = Carried; e_data_len = 0; e_data_crc = 0l };
            {
              e_name = log;
              e_kind = Log_suffix base_len;
              e_data_len = String.length suffix;
              e_data_crc = Crc32c.string suffix;
            };
          ]
        | _ ->
          incr funks_shipped;
          (* Bind in order: [full] appends to the data section, and list
             literals evaluate right-to-left — the header and the data
             must agree on entry order. *)
          let sst_entry = full sst (Env.read_all src (member sst)) in
          let log_entry = full log (Env.read_all src (member log)) in
          [ sst_entry; log_entry ])
      snap.Snapshot.funks
  in
  let header =
    {
      h_snapshot = snapshot_id;
      h_base = base_id;
      h_version = snap.Snapshot.version;
      h_entries = meta_entries @ funk_entries;
    }
  in
  let hdr = encode_header header in
  let buf = Buffer.create (Buffer.length data + String.length hdr + 64) in
  Buffer.add_string buf magic;
  Varint.write buf (String.length hdr);
  Buffer.add_string buf hdr;
  Buffer.add_buffer buf data;
  let body = Buffer.contents buf in
  let seq = match List.rev (list_archives dest) with (s, _) :: _ -> s + 1 | [] -> 1 in
  let name = archive_name seq in
  Meta_file.store dest ~name body;
  let bytes = String.length body + 4 in
  (match obs with
  | Some obs ->
    Obs.Counter.add (Obs.counter obs "backup.funks_shipped") !funks_shipped;
    Obs.Counter.add (Obs.counter obs "backup.bytes") bytes
  | None -> ());
  (name, { funks_shipped = !funks_shipped; bytes_shipped = bytes })

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)

let restore ~src ~dest =
  let archives = list_archives src in
  if archives = [] then invalid_arg "Backup.restore: no backup archives";
  (* Fold the chain into a name -> content map, validating linkage:
     segment 1 must be a full backup, segment N's base must be segment
     N-1's snapshot. *)
  let files : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let _last =
    List.fold_left
      (fun prev (_seq, name) ->
        let header, payload = read_archive src name in
        let fail detail = Meta_file.corrupt src ~name detail in
        (match (prev, header.h_base) with
        | None, None -> ()
        | None, Some _ -> fail "chain starts with an incremental archive"
        | Some _, None -> fail "full archive in the middle of the chain"
        | Some p, Some b -> if p <> b then fail (Printf.sprintf "base %S does not match previous snapshot %S" b p));
        let next : (string, string) Hashtbl.t = Hashtbl.create 64 in
        let off = ref 0 in
        List.iter
          (fun e ->
            let data = String.sub payload !off e.e_data_len in
            off := !off + e.e_data_len;
            if Crc32c.string data <> e.e_data_crc then
              fail (Printf.sprintf "entry %S fails its checksum" e.e_name);
            let content =
              match e.e_kind with
              | Full -> data
              | Carried -> (
                match Hashtbl.find_opt files e.e_name with
                | Some c -> c
                | None -> fail (Printf.sprintf "entry %S carried but absent from base" e.e_name))
              | Log_suffix base_len -> (
                match Hashtbl.find_opt files e.e_name with
                | Some c when String.length c >= base_len -> String.sub c 0 base_len ^ data
                | Some _ -> fail (Printf.sprintf "entry %S shorter than its base length" e.e_name)
                | None -> fail (Printf.sprintf "entry %S suffix but absent from base" e.e_name))
            in
            Hashtbl.replace next e.e_name content)
          header.h_entries;
        (* Files the segment does not mention are gone at its snapshot. *)
        Hashtbl.reset files;
        Hashtbl.iter (Hashtbl.replace files) next;
        Some header.h_snapshot)
      None archives
  in
  (match Env.list_files dest with
  | [] -> ()
  | _ -> invalid_arg "Backup.restore: destination is not empty");
  Hashtbl.iter
    (fun name content ->
      let f = Env.create dest name in
      (try
         Env.append f content;
         Env.fsync f;
         Env.close_file f
       with exn ->
         Env.close_file f;
         raise exn))
    files
