open Evendb_util
open Evendb_storage
open Evendb_sstable
open Evendb_log

type t = {
  funk_id : int;
  funk_env : Env.t;
  sst_reader : Sstable.Reader.t;
  log : Log_file.Writer.t;
  refs : int Atomic.t; (* one for the owning chunk + one per reader pin *)
  retired : bool Atomic.t;
}

let sst_name id = Printf.sprintf "funk_%08d.sst" id
let log_name id = Printf.sprintf "funk_%08d.log" id

let create_from_iter env ~block_bytes ~id ~min_key it =
  let builder =
    Sstable.Builder.create env ~block_size:block_bytes ~name:(sst_name id) ~min_key ()
  in
  let rec drain () =
    match it () with
    | None -> ()
    | Some e ->
      Sstable.Builder.add builder e;
      drain ()
  in
  (* A funk is never observable half-created: abort the builder if an
     append dies mid-drain, and remove the finished table if the log
     cannot be created, so the only partial artifacts a crash can leave
     are swept as non-live at recovery. *)
  (try drain ()
   with exn ->
     Sstable.Builder.abort builder;
     raise exn);
  Sstable.Builder.finish builder;
  let log =
    try Log_file.Writer.create env (log_name id)
    with exn ->
      (try Env.delete env (sst_name id) with _ -> ());
      raise exn
  in
  {
    funk_id = id;
    funk_env = env;
    sst_reader = Sstable.Reader.open_ env (sst_name id);
    log;
    refs = Atomic.make 1;
    retired = Atomic.make false;
  }

let open_existing env ~id =
  let sst_reader = Sstable.Reader.open_ env (sst_name id) in
  let log = Log_file.Writer.open_append env (log_name id) in
  {
    funk_id = id;
    funk_env = env;
    sst_reader;
    log;
    refs = Atomic.make 1;
    retired = Atomic.make false;
  }

let id t = t.funk_id
let min_key t = Sstable.Reader.chunk_min_key t.sst_reader
let sst t = t.sst_reader
let env t = t.funk_env

let append t e = Log_file.Writer.append t.log e

let log_size t = Log_file.Writer.size t.log
let log_append_count t = Log_file.Writer.append_count t.log

let total_bytes t =
  let sst_bytes = try Env.size t.funk_env (sst_name t.funk_id) with Not_found -> 0 in
  sst_bytes + log_size t

let fsync_log t = Log_file.Writer.fsync t.log

let get_from_log t ?segments ~visible ~max_version key =
  let consider best _off (e : Kv_iter.entry) =
    if String.equal e.key key && e.version <= max_version && visible e.version then
      match best with
      | Some b when Kv_iter.entry_newer b e -> best
      | _ -> Some e
    else best
  in
  match segments with
  | None -> Log_file.Reader.fold t.funk_env (log_name t.funk_id) ~init:None ~f:consider
  | Some ranges ->
    (* Ranges are newest-first; a hit in a newer range cannot be
       superseded by an older one, so stop at the first hit. *)
    let rec scan = function
      | [] -> None
      | (lo, hi) :: rest -> (
        let hi = if hi = max_int then None else Some hi in
        match
          Log_file.Reader.fold ~lo ?hi t.funk_env (log_name t.funk_id) ~init:None ~f:consider
        with
        | Some e -> Some e
        | None -> scan rest)
    in
    scan ranges

let get_from_sst t ~visible ~max_version key =
  (* The SSTable stores versions newest-first per key; take the newest
     visible one within bound. *)
  let versions = Sstable.Reader.get_all_versions t.sst_reader key in
  List.find_opt (fun (e : Kv_iter.entry) -> e.version <= max_version && visible e.version) versions

let log_entries_in_range t ~visible ~low ~high =
  let entries =
    Log_file.Reader.fold t.funk_env (log_name t.funk_id) ~init:[] ~f:(fun acc _off e ->
        if
          String.compare low e.Kv_iter.key <= 0
          && String.compare e.Kv_iter.key high <= 0
          && visible e.Kv_iter.version
        then e :: acc
        else acc)
  in
  List.sort Kv_iter.compare_entries entries

let all_entries ?hi t ~visible =
  let log_entries =
    Log_file.Reader.fold ?hi t.funk_env (log_name t.funk_id) ~init:[] ~f:(fun acc _off e ->
        if visible e.Kv_iter.version then e :: acc else acc)
  in
  let log_sorted = Kv_iter.of_list (List.sort Kv_iter.compare_entries log_entries) in
  let sst_it = Kv_iter.filter (fun e -> visible e.Kv_iter.version) (Sstable.Reader.iter t.sst_reader) in
  Kv_iter.merge [ log_sorted; sst_it ]

let log_offsets_for_bloom t ~visible =
  List.rev
    (Log_file.Reader.fold t.funk_env (log_name t.funk_id) ~init:[] ~f:(fun acc off e ->
         if visible e.Kv_iter.version then (off, e.Kv_iter.key) :: acc else acc))

let delete_files t =
  Log_file.Writer.close t.log;
  Env.delete t.funk_env (sst_name t.funk_id);
  Env.delete t.funk_env (log_name t.funk_id)

let release t =
  let before = Atomic.fetch_and_add t.refs (-1) in
  if before = 1 && Atomic.get t.retired then delete_files t

(* Pin only from a positive count: a funk at zero refs is retired and
   its files deleted (or being deleted); reviving it would run
   [delete_files] a second time. *)
let rec acquire t =
  let r = Atomic.get t.refs in
  if r <= 0 then false
  else if not (Atomic.compare_and_set t.refs r (r + 1)) then acquire t
  else if Atomic.get t.retired then begin
    release t;
    false
  end
  else true

let retire t =
  Atomic.set t.retired true;
  release t

exception Stale

let with_pin ~current f =
  (* A retired funk whose owner chunk is itself retired will never be
     replaced; after a few attempts let the caller re-resolve the chunk
     through the (already updated) index. *)
  let rec pin attempts =
    if attempts > 64 then raise Stale;
    let funk = current () in
    if acquire funk then funk
    else begin
      Domain.cpu_relax ();
      pin (attempts + 1)
    end
  in
  let funk = pin 0 in
  Fun.protect ~finally:(fun () -> release funk) (fun () -> f funk)

let close_log t = Log_file.Writer.close t.log
