open Io_error

module type BACKEND = sig
  type handle

  val backend_name : string
  val create : string -> handle
  val open_append : string -> handle
  val append : handle -> bytes -> pos:int -> len:int -> unit
  val handle_size : handle -> int
  val fsync : handle -> unit
  val close : handle -> unit
  val size : string -> int
  val read_at : string -> off:int -> len:int -> string
  val pread : string -> off:int -> len:int -> Evendb_util.Bigslice.t
  val exists : string -> bool
  val delete : string -> unit
  val rename : old_name:string -> new_name:string -> unit
  val list_files : unit -> string list
  val sync_namespace : unit -> bool
  val supports_crash : bool
  val crash : unit -> unit
end

type packed = B : (module BACKEND with type handle = 'h) -> packed

let with_lock = Mutex.protect

(* ------------------------------------------------------------------ *)
(* Memory backend: an in-process filesystem that models crashes — each
   file tracks its last-synced length and [crash] drops every unsynced
   suffix.

   A file's bytes live in segments that are never copied once written:
   segment [k] holds 256 B << k up to 64 KiB, and every later one
   64 KiB, so a small file stays small and growing a large one costs no
   copy of what it already holds. Segments past [len] (left by a crash)
   are reused by the next appends.                                     *)

type mem_file = {
  mutable segs : Bytes.t array; (* the first [n_segs] are allocated *)
  mutable n_segs : int;
  mutable len : int;
  mutable synced : int;
  mf_mutex : Mutex.t;
}

let seg_min = 256
let seg_max = 65536
let seg_doublings = 8 (* seg_min lsl seg_doublings = seg_max *)
let seg_size k = if k < seg_doublings then seg_min lsl k else seg_max

let flat_start = seg_min * ((1 lsl seg_doublings) - 1) (* where 64 KiB segments begin *)

let seg_start k =
  if k <= seg_doublings then seg_min * ((1 lsl k) - 1)
  else flat_start + ((k - seg_doublings) * seg_max)

(* The segment holding byte [off]. *)
let seg_of off =
  if off >= flat_start then seg_doublings + ((off - flat_start) / seg_max)
  else begin
    let k = ref 0 in
    while seg_start (!k + 1) <= off do
      incr k
    done;
    !k
  end

(* Allocate segments until [need] bytes fit. *)
let mem_ensure mf need =
  while seg_start mf.n_segs < need do
    if mf.n_segs = Array.length mf.segs then begin
      let segs = Array.make (max 8 (2 * mf.n_segs)) Bytes.empty in
      Array.blit mf.segs 0 segs 0 mf.n_segs;
      mf.segs <- segs
    end;
    mf.segs.(mf.n_segs) <- Bytes.create (seg_size mf.n_segs);
    mf.n_segs <- mf.n_segs + 1
  done

let mem_append mf b ~pos ~len =
  mem_ensure mf (mf.len + len);
  let pos = ref pos and left = ref len in
  while !left > 0 do
    let k = seg_of mf.len in
    let within = mf.len - seg_start k in
    let n = min !left (seg_size k - within) in
    Bytes.blit b !pos mf.segs.(k) within n;
    mf.len <- mf.len + n;
    pos := !pos + n;
    left := !left - n
  done

(* [blit seg seg_off dst_off n] for each segment piece of [off, off+len). *)
let mem_read mf ~off ~len blit =
  if off + len > mf.len then invalid_arg "Env.read_at: range beyond end of file";
  let rec go off dst len =
    if len > 0 then begin
      let k = seg_of off in
      let within = off - seg_start k in
      let n = min len (seg_size k - within) in
      blit mf.segs.(k) within dst n;
      go (off + n) (dst + n) (len - n)
    end
  in
  go off 0 len

let new_mem_file () = { segs = [||]; n_segs = 0; len = 0; synced = 0; mf_mutex = Mutex.create () }

let memory_of_files init : packed =
  let files : (string, mem_file) Hashtbl.t = Hashtbl.create 64 in
  let ns_mutex = Mutex.create () in
  List.iter
    (fun (name, contents) ->
      let mf = new_mem_file () in
      mem_append mf (Bytes.unsafe_of_string contents) ~pos:0 ~len:(String.length contents);
      mf.synced <- mf.len;
      Hashtbl.replace files name mf)
    init;
  let find name =
    match with_lock ns_mutex (fun () -> Hashtbl.find_opt files name) with
    | Some mf -> mf
    | None -> raise Not_found
  in
  B
    (module struct
      type handle = mem_file

      let backend_name = "memory"

      let create name =
        let mf = new_mem_file () in
        with_lock ns_mutex (fun () -> Hashtbl.replace files name mf);
        mf

      let open_append name =
        with_lock ns_mutex (fun () ->
            match Hashtbl.find_opt files name with
            | Some mf -> mf
            | None ->
              let mf = new_mem_file () in
              Hashtbl.replace files name mf;
              mf)

      let append mf b ~pos ~len = with_lock mf.mf_mutex (fun () -> mem_append mf b ~pos ~len)
      let handle_size mf = with_lock mf.mf_mutex (fun () -> mf.len)
      let fsync mf = with_lock mf.mf_mutex (fun () -> mf.synced <- mf.len)
      let close _mf = ()
      let size name = handle_size (find name)

      let read_at name ~off ~len =
        let mf = find name in
        with_lock mf.mf_mutex (fun () ->
            let dst = Bytes.create len in
            mem_read mf ~off ~len (fun seg src_off dst_off n -> Bytes.blit seg src_off dst dst_off n);
            Bytes.unsafe_to_string dst)

      (* Partial read mirroring [Disk.pread]: the slice is a private
         copy, taken under the same lock and with the same bounds
         contract as [read_at], so the block cache behaves identically
         under crash simulation. *)
      let pread name ~off ~len =
        let mf = find name in
        with_lock mf.mf_mutex (fun () ->
            let slice = Evendb_util.Bigslice.create len in
            mem_read mf ~off ~len (fun seg src_off dst_off n ->
                Evendb_util.Bigslice.blit_from_bytes seg ~src_off slice ~dst_off ~len:n);
            slice)

      let exists name = with_lock ns_mutex (fun () -> Hashtbl.mem files name)
      let delete name = with_lock ns_mutex (fun () -> Hashtbl.remove files name)

      let rename ~old_name ~new_name =
        with_lock ns_mutex (fun () ->
            match Hashtbl.find_opt files old_name with
            | None -> raise Not_found
            | Some mf ->
              Hashtbl.remove files old_name;
              Hashtbl.replace files new_name mf)

      let list_files () =
        with_lock ns_mutex (fun () ->
            Hashtbl.fold (fun name _ acc -> name :: acc) files [])

      let sync_namespace () =
        with_lock ns_mutex (fun () ->
            Hashtbl.iter
              (fun _ mf -> with_lock mf.mf_mutex (fun () -> mf.synced <- mf.len))
              files);
        true

      let supports_crash = true

      let crash () =
        with_lock ns_mutex (fun () ->
            Hashtbl.iter
              (fun _ mf -> with_lock mf.mf_mutex (fun () -> mf.len <- mf.synced))
              files)
    end)

let memory () : packed = memory_of_files []

(* ------------------------------------------------------------------ *)
(* Mutation journal: a middleware that records every state-changing
   backend operation, so the crash-point explorer can reconstruct the
   filesystem as it would look if power failed after any prefix of the
   history. Metadata operations (create/delete/rename) are durable at
   the point they happen — the same contract the memory and disk
   backends present — so a crash only loses unsynced appended bytes. *)

type journal_op =
  | J_create of string
  | J_open of string
  | J_append of string * string
  | J_fsync of string
  | J_delete of string
  | J_rename of string * string
  | J_sync_all

type journal = {
  j_mutex : Mutex.t;
  mutable j_ops : journal_op array;
  mutable j_len : int;
}

let new_journal () =
  { j_mutex = Mutex.create (); j_ops = Array.make 64 J_sync_all; j_len = 0 }

let j_push j op =
  with_lock j.j_mutex (fun () ->
      if j.j_len = Array.length j.j_ops then begin
        let ops = Array.make (2 * j.j_len) J_sync_all in
        Array.blit j.j_ops 0 ops 0 j.j_len;
        j.j_ops <- ops
      end;
      j.j_ops.(j.j_len) <- op;
      j.j_len <- j.j_len + 1)

let journal_length j = with_lock j.j_mutex (fun () -> j.j_len)

(* Only operations the inner backend completed are journaled: a failed
   op changed nothing, so it is not a crash point. Handles carry their
   file name (appends and fsyncs are journaled under the name the
   handle was opened with — nothing in this codebase renames a file it
   still holds open for writing). *)
let journaled j (B (module Inner) : packed) : packed =
  B
    (module struct
      type handle = string * Inner.handle

      let backend_name = "journaled+" ^ Inner.backend_name

      let create name =
        let h = Inner.create name in
        j_push j (J_create name);
        (name, h)

      let open_append name =
        let h = Inner.open_append name in
        j_push j (J_open name);
        (name, h)

      let append (name, h) b ~pos ~len =
        let s = Bytes.sub_string b pos len in
        Inner.append h b ~pos ~len;
        j_push j (J_append (name, s))

      let handle_size (_, h) = Inner.handle_size h

      let fsync (name, h) =
        Inner.fsync h;
        j_push j (J_fsync name)

      let close (_, h) = Inner.close h
      let size = Inner.size
      let read_at = Inner.read_at
      let pread = Inner.pread
      let exists = Inner.exists

      let delete name =
        Inner.delete name;
        j_push j (J_delete name)

      let rename ~old_name ~new_name =
        Inner.rename ~old_name ~new_name;
        j_push j (J_rename (old_name, new_name))

      let list_files = Inner.list_files

      let sync_namespace () =
        let r = Inner.sync_namespace () in
        if r then j_push j J_sync_all;
        r

      let supports_crash = Inner.supports_crash
      let crash = Inner.crash
    end)

let journaled_memory () =
  let j = new_journal () in
  (j, journaled j (memory ()))

type crash_mode = Drop_unsynced | Reorder_unsynced of int

(* Rebuild the filesystem state after ops [0, k), then crash it. In
   [Drop_unsynced] every file keeps exactly its synced prefix — the
   deterministic lower bound of what any correct disk guarantees. In
   [Reorder_unsynced seed] each file independently keeps a seeded
   random amount of its unsynced suffix (possibly torn mid-record),
   modeling a disk that reordered and partially persisted unsynced
   writes across files before the power failed. *)
let replay_prefix j ?(mode = Drop_unsynced) k : packed =
  let ops =
    with_lock j.j_mutex (fun () -> Array.sub j.j_ops 0 (max 0 (min k j.j_len)))
  in
  let files : (string, Buffer.t * int ref) Hashtbl.t = Hashtbl.create 64 in
  let ensure name =
    match Hashtbl.find_opt files name with
    | Some f -> f
    | None ->
      let f = (Buffer.create 256, ref 0) in
      Hashtbl.replace files name f;
      f
  in
  Array.iter
    (function
      | J_create name -> Hashtbl.replace files name (Buffer.create 256, ref 0)
      | J_open name -> ignore (ensure name)
      | J_append (name, s) ->
        let buf, _ = ensure name in
        Buffer.add_string buf s
      | J_fsync name -> (
        match Hashtbl.find_opt files name with
        | Some (buf, synced) -> synced := Buffer.length buf
        | None -> ())
      | J_delete name -> Hashtbl.remove files name
      | J_rename (old_name, new_name) -> (
        match Hashtbl.find_opt files old_name with
        | Some f ->
          Hashtbl.remove files old_name;
          Hashtbl.replace files new_name f
        | None -> ())
      | J_sync_all ->
        Hashtbl.iter (fun _ (buf, synced) -> synced := Buffer.length buf) files)
    ops;
  let survivors =
    Hashtbl.fold
      (fun name (buf, synced) acc ->
        let len = Buffer.length buf in
        let keep =
          match mode with
          | Drop_unsynced -> !synced
          | Reorder_unsynced seed ->
            if len = !synced then len
            else begin
              (* Seeded per (file, crash point): independent across
                 files, so later appends to one file can survive while
                 earlier appends to another are lost. *)
              let rng =
                Evendb_util.Rng.create (seed lxor Hashtbl.hash name lxor (k * 0x9e3779b1))
              in
              !synced + Evendb_util.Rng.int rng (len - !synced + 1)
            end
        in
        (name, Buffer.sub buf 0 keep) :: acc)
      files []
  in
  memory_of_files survivors
(* Disk backend: real files under a root directory. Unix failures
   surface as typed [Io_error]s; ENOENT keeps its historical
   [Not_found] meaning on reads.                                       *)

type disk_file = { fd : Unix.file_descr; df_name : string; mutable dpos : int }

let disk dir : packed =
  let rec mkdir_p d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mkdir_p dir;
  let read_fds : (string, Unix.file_descr) Hashtbl.t = Hashtbl.create 64 in
  (* Read-only mmap windows for [pread], keyed by name. A mapping can
     lag behind an append (files are append-only, never rewritten in
     place), so it is remapped whenever a request reaches past its
     length, and dropped alongside the read fd whenever the name is
     created over, deleted, or renamed. *)
  let mmaps : (string, Evendb_util.Bigslice.buf) Hashtbl.t = Hashtbl.create 64 in
  let fds_mutex = Mutex.create () in
  let path name = Filename.concat dir name in
  (* Names may carry a sub-directory (fsck --repair quarantines files
     under "quarantine/"); create the parent on demand. *)
  let ensure_parent name =
    let d = Filename.dirname (path name) in
    if d <> dir then mkdir_p d
  in
  let wrap ~op ~file f =
    try f () with Unix.Unix_error (e, _, _) -> raise (of_unix ~op ~file e)
  in
  let drop_read_fd name =
    with_lock fds_mutex (fun () ->
        Hashtbl.remove mmaps name;
        match Hashtbl.find_opt read_fds name with
        | None -> ()
        | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Hashtbl.remove read_fds name)
  in
  let rec write_fully fd b pos len =
    if len > 0 then begin
      let n = Unix.write fd b pos len in
      write_fully fd b (pos + n) (len - n)
    end
  in
  B
    (module struct
      type handle = disk_file

      let backend_name = "disk"

      let create name =
        drop_read_fd name;
        ensure_parent name;
        let fd =
          wrap ~op:"create" ~file:name (fun () ->
              Unix.openfile (path name) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
        in
        { fd; df_name = name; dpos = 0 }

      let open_append name =
        ensure_parent name;
        wrap ~op:"open_append" ~file:name (fun () ->
            let fd = Unix.openfile (path name) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
            let dpos = Unix.lseek fd 0 Unix.SEEK_END in
            { fd; df_name = name; dpos })

      let append d b ~pos ~len =
        (* A short write still advances [dpos] by the bytes that made
           it out, so the handle's view matches the file. *)
        let written = ref 0 in
        (try
           write_fully d.fd b pos len;
           written := len
         with Unix.Unix_error (e, _, _) ->
           d.dpos <- d.dpos + !written;
           raise (of_unix ~op:"append" ~file:d.df_name e));
        d.dpos <- d.dpos + len

      let handle_size d = d.dpos

      let fsync d = wrap ~op:"fsync" ~file:d.df_name (fun () -> Unix.fsync d.fd)

      let close d = try Unix.close d.fd with Unix.Unix_error _ -> ()

      let size name =
        let st =
          try Unix.stat (path name) with
          | Unix.Unix_error (Unix.ENOENT, _, _) -> raise Not_found
          | Unix.Unix_error (e, _, _) -> raise (of_unix ~op:"size" ~file:name e)
        in
        st.Unix.st_size

      let read_at name ~off ~len =
        let fd =
          with_lock fds_mutex (fun () ->
              match Hashtbl.find_opt read_fds name with
              | Some fd -> fd
              | None ->
                let fd =
                  try Unix.openfile (path name) [ Unix.O_RDONLY ] 0 with
                  | Unix.Unix_error (Unix.ENOENT, _, _) -> raise Not_found
                  | Unix.Unix_error (e, _, _) -> raise (of_unix ~op:"read" ~file:name e)
                in
                Hashtbl.replace read_fds name fd;
                fd)
        in
        (* One shared fd per file: serialize the seek+read. *)
        with_lock fds_mutex (fun () ->
            wrap ~op:"read" ~file:name (fun () ->
                let file_len = (Unix.fstat fd).Unix.st_size in
                if off + len > file_len then
                  invalid_arg "Env.read_at: range beyond end of file";
                ignore (Unix.lseek fd off Unix.SEEK_SET);
                let b = Bytes.create len in
                let rec read_fully pos remaining =
                  if remaining > 0 then begin
                    let n = Unix.read fd b pos remaining in
                    if n = 0 then invalid_arg "Env.read_at: unexpected end of file";
                    read_fully (pos + n) (remaining - n)
                  end
                in
                read_fully 0 len;
                Bytes.unsafe_to_string b))

      let pread name ~off ~len =
        if len = 0 then begin
          (* Still validate the name and bounds like [read_at]. *)
          let file_len = size name in
          if off > file_len then invalid_arg "Env.read_at: range beyond end of file";
          Evendb_util.Bigslice.create 0
        end
        else
          with_lock fds_mutex (fun () ->
              let remap () =
                let fd =
                  try Unix.openfile (path name) [ Unix.O_RDONLY ] 0 with
                  | Unix.Unix_error (Unix.ENOENT, _, _) -> raise Not_found
                  | Unix.Unix_error (e, _, _) -> raise (of_unix ~op:"read" ~file:name e)
                in
                Fun.protect
                  ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
                  (fun () ->
                    wrap ~op:"read" ~file:name (fun () ->
                        let file_len = (Unix.fstat fd).Unix.st_size in
                        if off + len > file_len then
                          invalid_arg "Env.read_at: range beyond end of file";
                        let g =
                          Unix.map_file fd Bigarray.char Bigarray.c_layout false
                            [| file_len |]
                        in
                        let buf = Bigarray.array1_of_genarray g in
                        Hashtbl.replace mmaps name buf;
                        buf))
              in
              let buf =
                match Hashtbl.find_opt mmaps name with
                | Some buf when off + len <= Bigarray.Array1.dim buf -> buf
                | _ -> remap ()
              in
              Evendb_util.Bigslice.of_bigarray ~off ~len buf)

      let exists name = Sys.file_exists (path name)

      let delete name =
        drop_read_fd name;
        try Unix.unlink (path name) with
        | Unix.Unix_error (Unix.ENOENT, _, _) -> ()
        | Unix.Unix_error (e, _, _) -> raise (of_unix ~op:"delete" ~file:name e)

      let rename ~old_name ~new_name =
        drop_read_fd old_name;
        drop_read_fd new_name;
        ensure_parent new_name;
        wrap ~op:"rename" ~file:old_name (fun () ->
            Unix.rename (path old_name) (path new_name))

      let list_files () =
        (* Top-level files plus quarantined ones (as "quarantine/x"),
           telemetry segments (as "telemetry/x") and snapshot members
           (as "snapshots/<id>/x"), matching the memory backend's flat
           view of those prefixes. *)
        Array.to_list (Sys.readdir dir)
        |> List.concat_map (fun name ->
               if Sys.is_directory (path name) then
                 if name = "quarantine" || name = "telemetry" then
                   Array.to_list (Sys.readdir (path name))
                   |> List.map (fun f -> Filename.concat name f)
                 else if name = "snapshots" then
                   Array.to_list (Sys.readdir (path name))
                   |> List.concat_map (fun id ->
                          let sdir = Filename.concat name id in
                          if Sys.is_directory (path sdir) then
                            Array.to_list (Sys.readdir (path sdir))
                            |> List.map (fun f -> Filename.concat sdir f)
                          else [ sdir ])
                 else []
               else [ name ])
      let sync_namespace () = false
      let supports_crash = false
      let crash () = invalid_arg "Env.crash: backend does not support crash simulation"
    end)

(* ------------------------------------------------------------------ *)
(* Name-prefix middleware: a flat sub-namespace inside an existing
   backend. The prefix stays inside the file NAME (no directories) so
   the disk backend's top-level-only [list_files] still sees every
   prefixed file, and suffix-based classification (".log"/".sst") is
   unaffected. The structured names — "quarantine/x" (fsck's
   quarantine area) and "snapshots/<id>/x" (published snapshots) —
   keep their directory component outermost, so their files stay
   inside the directories every backend already lists; the prefix
   scopes the inner component ("quarantine/<prefix>x",
   "snapshots/<prefix><id>/x", "telemetry/<prefix>x"). *)

let quarantine_dir = "quarantine/"
let snapshots_dir = "snapshots/"
let telemetry_dir = "telemetry/"

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let strip ~prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix)

let prefixed_name ~prefix name =
  if has_prefix ~prefix:quarantine_dir name then
    quarantine_dir ^ prefix ^ strip ~prefix:quarantine_dir name
  else if has_prefix ~prefix:snapshots_dir name then
    snapshots_dir ^ prefix ^ strip ~prefix:snapshots_dir name
  else if has_prefix ~prefix:telemetry_dir name then
    telemetry_dir ^ prefix ^ strip ~prefix:telemetry_dir name
  else prefix ^ name

let prefixed ~prefix (B (module Inner) : packed) : packed =
  if prefix = "" || String.contains prefix '/' then
    invalid_arg "Backend.prefixed: prefix must be non-empty and contain no '/'";
  let map = prefixed_name ~prefix in
  let unmap name =
    if has_prefix ~prefix name then Some (strip ~prefix name)
    else if has_prefix ~prefix:(quarantine_dir ^ prefix) name then
      Some (quarantine_dir ^ strip ~prefix:(quarantine_dir ^ prefix) name)
    else if has_prefix ~prefix:(snapshots_dir ^ prefix) name then
      Some (snapshots_dir ^ strip ~prefix:(snapshots_dir ^ prefix) name)
    else if has_prefix ~prefix:(telemetry_dir ^ prefix) name then
      Some (telemetry_dir ^ strip ~prefix:(telemetry_dir ^ prefix) name)
    else None
  in
  B
    (module struct
      type handle = Inner.handle

      let backend_name = Printf.sprintf "prefixed(%s)+%s" prefix Inner.backend_name
      let create name = Inner.create (map name)
      let open_append name = Inner.open_append (map name)
      let append = Inner.append
      let handle_size = Inner.handle_size
      let fsync = Inner.fsync
      let close = Inner.close
      let size name = Inner.size (map name)
      let read_at name ~off ~len = Inner.read_at (map name) ~off ~len
      let pread name ~off ~len = Inner.pread (map name) ~off ~len
      let exists name = Inner.exists (map name)
      let delete name = Inner.delete (map name)
      let rename ~old_name ~new_name = Inner.rename ~old_name:(map old_name) ~new_name:(map new_name)
      let list_files () = List.filter_map unmap (Inner.list_files ())

      let sync_namespace () =
        (* Syncs the whole underlying namespace — a superset of this
           sub-namespace, which is safe (durability is monotone). *)
        Inner.sync_namespace ()

      let supports_crash = Inner.supports_crash
      let crash = Inner.crash
    end)
