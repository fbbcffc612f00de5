exception Io_error = Io_error.Io_error
exception Corruption = Io_error.Corruption

module type BACKEND = Backend.BACKEND

(* Files that [fsck --repair] moved aside live under this prefix; the
   engines' recovery sweeps and the scrubber must leave them alone. *)
let quarantine_prefix = Backend.quarantine_dir

let quarantined name = quarantine_prefix ^ name

(* A reserved namespace holds its bare directory (which shows up in
   disk listings) and every name under it. *)
let in_namespace dir =
  let bare = String.sub dir 0 (String.length dir - 1) in
  fun name -> name = bare || Backend.has_prefix ~prefix:dir name

let is_quarantined = in_namespace quarantine_prefix

(* Published point-in-time snapshots live under [snapshots/<id>/...];
   recovery sweeps and the scrubber treat the prefix as a separate
   namespace (a snapshot member is never an orphan of the live store). *)
let snapshots_prefix = Backend.snapshots_dir

let snapshot_member ~id name = snapshots_prefix ^ id ^ "/" ^ name

let is_snapshot = in_namespace snapshots_prefix

(* Continuous-telemetry artifacts (the windowed metrics journal) live
   under [telemetry/]: observational history, not data — recovery
   sweeps and the live store's orphan logic leave the prefix alone, and
   losing it can never lose user data. *)
let telemetry_prefix = Backend.telemetry_dir

let telemetry_member name = telemetry_prefix ^ name

let is_telemetry = in_namespace telemetry_prefix

let split_snapshot name =
  if not (Backend.has_prefix ~prefix:snapshots_prefix name) then None
  else
    let rest = Backend.strip ~prefix:snapshots_prefix name in
    match String.index_opt rest '/' with
    | None -> None (* the bare per-snapshot directory *)
    | Some i ->
      Some (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))

(* An open file: the backend stack's handle packed with its module, so
   one [file] type covers every backend composition. *)
type fhandle = FH : (module Backend.BACKEND with type handle = 'h) * 'h -> fhandle

type t = {
  backend : Backend.packed; (* full middleware stack: counting → [fault] → base *)
  st : Io_stats.t;
  faults : Fault.plan option;
  ns_mutex : Mutex.t; (* protects [open_files] and [next_id] *)
  open_files : (int, file) Hashtbl.t; (* by handle id, for fsync_all *)
  mutable next_id : int;
  mutable generation : int; (* bumped by [crash] to invalidate handles *)
  corruptions : int Atomic.t; (* checksum/structure failures detected on reads *)
  log_resyncs : int Atomic.t; (* garbage regions skipped by log CRC resync *)
  mutable block_cache : Evendb_cache.Block_cache.t option;
      (* shared sstable-block cache; [sub] children inherit it *)
  cache_space : int; (* disambiguates file names across sub-namespaces *)
}

and file = {
  env : t;
  name : string;
  id : int;
  gen : int;
  fh : fhandle;
  f_mutex : Mutex.t;
  mutable closed : bool;
}

let with_lock = Mutex.protect

let stats t = t.st
let faults t = t.faults
let faults_injected t = match t.faults with None -> 0 | Some p -> Fault.injected p

(* Classify a file by its name so Io_stats can split bytes per kind.
   All engines share the conventions: record logs (funk logs, WALs)
   end in ".log", SSTables in ".sst"; anything else (manifests,
   checkpoint/recovery markers) is metadata. *)
let kind_of_name name : Io_stats.kind =
  if Filename.check_suffix name ".log" then Io_stats.Log
  else if Filename.check_suffix name ".sst" then Io_stats.Sstable
  else Io_stats.Meta

(* Cache-key namespaces are process-global so any two environments —
   related by [sub] or not — sharing one block cache can never collide
   on equal file names. *)
let next_cache_space = Atomic.make 0

let make ?faults base =
  let st = Io_stats.create () in
  let base = match faults with None -> base | Some p -> Fault.wrap p base in
  {
    backend = Counting.wrap st ~kind_of_name base;
    st;
    faults;
    ns_mutex = Mutex.create ();
    open_files = Hashtbl.create 64;
    next_id = 0;
    generation = 0;
    corruptions = Atomic.make 0;
    log_resyncs = Atomic.make 0;
    block_cache = None;
    cache_space = Atomic.fetch_and_add next_cache_space 1;
  }

let note_corruption t = Atomic.incr t.corruptions
let corruptions_detected t = Atomic.get t.corruptions
let note_log_resync t = Atomic.incr t.log_resyncs
let log_resyncs t = Atomic.get t.log_resyncs

let disk ?faults dir = make ?faults (Backend.disk dir)
let memory ?faults () = make ?faults (Backend.memory ())
let of_backend ?faults base = make ?faults base

(* A sub-environment layers a fresh Counting (its own Io_stats) over a
   name-prefixed view of the parent's FULL stack, so the parent's
   accounting and fault plan keep seeing every byte the child does —
   aggregate write-amp and deterministic injection stay correct for
   sharded stores. *)
let sub t ~prefix =
  let child = make (Backend.prefixed ~prefix t.backend) in
  (* The block cache is shared downward: all shards of a store draw
     from the parent's one budget (each child still has its own cache
     space, so equal names in sibling namespaces stay distinct). *)
  child.block_cache <- t.block_cache;
  child

let block_cache t = t.block_cache

let counters t =
  let cache read () = match t.block_cache with Some bc -> read bc | None -> 0 in
  let module B = Evendb_cache.Block_cache in
  List.concat_map
    (fun kind ->
      let kn = Io_stats.kind_name kind in
      [
        ( Printf.sprintf "io.%s.bytes_written" kn,
          fun () -> (Io_stats.snapshot_kind t.st kind).Io_stats.bytes_written );
        ( Printf.sprintf "io.%s.bytes_read" kn,
          fun () -> (Io_stats.snapshot_kind t.st kind).Io_stats.bytes_read );
      ])
    Io_stats.all_kinds
  @ [
      ("faults.injected", fun () -> faults_injected t);
      ("io.corruptions", fun () -> corruptions_detected t);
      ("log.resyncs", fun () -> log_resyncs t);
      ("blockcache.hits", cache B.hits);
      ("blockcache.misses", cache B.misses);
      ("blockcache.fills", cache B.fills);
      ("blockcache.evictions", cache B.evictions);
      ("blockcache.bytes", cache B.resident_bytes);
    ]
let cache_space t = t.cache_space
let set_block_cache t bc = t.block_cache <- bc

(* Install a fresh shared cache unless one was inherited or installed
   already — a [Db] opened on a shard's sub-environment must join the
   store-wide cache, not shadow it. *)
let install_block_cache t ~capacity_bytes =
  match t.block_cache with
  | Some _ -> ()
  | None ->
    if capacity_bytes > 0 then
      t.block_cache <- Some (Evendb_cache.Block_cache.create ~capacity_bytes ())

let backend_name t = match t.backend with Backend.B (module M) -> M.backend_name
let supports_crash t = match t.backend with Backend.B (module M) -> M.supports_crash

(* Historically "memory" and "can simulate crashes" coincide; custom
   backends inherit whichever durability model they implement. *)
let is_memory t = supports_crash t

let check_live file =
  if file.closed then failwith "Env: operation on closed file";
  if file.gen <> file.env.generation then
    failwith "Env: stale file handle (environment crashed)"

let register t name fh =
  with_lock t.ns_mutex (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let file =
        { env = t; name; id; gen = t.generation; fh; f_mutex = Mutex.create (); closed = false }
      in
      Hashtbl.replace t.open_files id file;
      file)

let invalidate_cached_blocks t name =
  match t.block_cache with
  | None -> ()
  | Some bc ->
    Evendb_cache.Block_cache.invalidate_file bc ~space:t.cache_space ~file:name

let create t name =
  (* [create] truncates: any cached blocks describe the old contents. *)
  invalidate_cached_blocks t name;
  match t.backend with
  | Backend.B (module M) -> register t name (FH ((module M), M.create name))

let open_append t name =
  match t.backend with
  | Backend.B (module M) -> register t name (FH ((module M), M.open_append name))

let append_bytes file b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Env.append_bytes: slice out of bounds";
  with_lock file.f_mutex (fun () ->
      check_live file;
      match file.fh with FH ((module M), h) -> M.append h b ~pos ~len)

let append file s =
  append_bytes file (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let file_size file =
  with_lock file.f_mutex (fun () ->
      match file.fh with FH ((module M), h) -> M.handle_size h)

let flush _file = ()

let fsync file =
  with_lock file.f_mutex (fun () ->
      check_live file;
      match file.fh with FH ((module M), h) -> M.fsync h)

let close_file file =
  with_lock file.f_mutex (fun () ->
      if not file.closed then begin
        file.closed <- true;
        (match file.fh with FH ((module M), h) -> M.close h);
        with_lock file.env.ns_mutex (fun () -> Hashtbl.remove file.env.open_files file.id)
      end)

let size t name = match t.backend with Backend.B (module M) -> M.size name

let read_at t name ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Env.read_at: negative range";
  match t.backend with Backend.B (module M) -> M.read_at name ~off ~len

let read_all t name =
  let n = size t name in
  if n = 0 then "" else read_at t name ~off:0 ~len:n

let pread t name ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Env.pread: negative range";
  match t.backend with Backend.B (module M) -> M.pread name ~off ~len

let exists t name = match t.backend with Backend.B (module M) -> M.exists name

let delete t name =
  invalidate_cached_blocks t name;
  match t.backend with Backend.B (module M) -> M.delete name

let rename t ~old_name ~new_name =
  invalidate_cached_blocks t old_name;
  invalidate_cached_blocks t new_name;
  match t.backend with Backend.B (module M) -> M.rename ~old_name ~new_name

let list_files t = match t.backend with Backend.B (module M) -> M.list_files ()

let space_used t =
  List.fold_left
    (fun acc name -> match size t name with n -> acc + n | exception Not_found -> acc)
    0 (list_files t)

let fsync_all t =
  match t.backend with
  | Backend.B (module M) ->
    if not (M.sync_namespace ()) then begin
      let files =
        with_lock t.ns_mutex (fun () ->
            Hashtbl.fold (fun _ f acc -> f :: acc) t.open_files [])
      in
      (* Closed/stale handles are skipped; real I/O failures propagate
         so a checkpoint never claims durability it doesn't have. *)
      List.iter (fun f -> try fsync f with Failure _ -> ()) files
    end

let crash t =
  match t.backend with
  | Backend.B (module M) ->
    M.crash ();
    (* Unsynced suffixes just vanished; cached blocks of this namespace
       may describe bytes that no longer exist. *)
    (match t.block_cache with
    | Some bc -> Evendb_cache.Block_cache.invalidate_space bc ~space:t.cache_space
    | None -> ());
    with_lock t.ns_mutex (fun () ->
        Hashtbl.reset t.open_files;
        t.generation <- t.generation + 1)
