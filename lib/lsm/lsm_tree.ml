(* The LSM scaffold both baselines share. It owns the write-ahead log,
   the memtable and its flush, the manifest, the refcounted file set
   and state pinning, the snapshot registry behind atomic scans,
   recovery, and the metrics. A {!POLICY} supplies only what differs:
   how a level lays out its files, how a get searches one level, and
   (as a closure given to {!Make.open_}) how levels are compacted. *)

open Evendb_util
open Evendb_storage
open Evendb_sstable
open Evendb_log
open Evendb_obs

module K = Kv_iter

(* Constants both baselines have always run with. *)
let l0_compaction_trigger = 4 (* L0 files that trigger a compaction out of L0 *)
let bloom_bits_per_key = 10 (* bloom filter density of every sstable *)
let sstable_block_bytes = 4096 (* sstable data block size *)

type file_meta = {
  fid : int;
  reader : Sstable.Reader.t;
  smallest : string;
  largest : string;
  bytes : int;
  refs : int Atomic.t; (* one per state referencing the file *)
}

let overlaps fm ~low ~high =
  String.compare fm.smallest high <= 0 && String.compare low fm.largest <= 0

(* Range check, then bloom: may [fm] hold a version of [key]? *)
let may_hold fm key =
  String.compare fm.smallest key <= 0
  && String.compare key fm.largest <= 0
  && Sstable.Reader.may_contain fm.reader key

let total_bytes files = List.fold_left (fun acc fm -> acc + fm.bytes) 0 files

(* The config fields the scaffold reads; each policy's config has them. *)
type settings = {
  memtable_bytes : int;
  sync_writes : bool;
  wal_fsync_every : int;
  attr_enabled : bool;
  block_cache_bytes : int;
}

module type POLICY = sig
  type config

  type 'f level
  (** One level's layout over files: ['f] is a file id in the manifest
      and a {!file_meta} in memory. *)

  val name : string
  (** ["lsm"] or ["flsm"]: prefixes file names, the manifest name and
      the stall counter. *)

  val max_levels : int
  val span_names : string list

  val file_span : string option
  (** Span wrapped around every file build, if any. *)

  val settings : config -> settings
  val empty_level : 'f level
  val map : ('a -> 'b) -> 'a level -> 'b level

  val files : 'f level -> 'f list
  (** Every file of the level, in the order scans merge them. *)

  val add_l0 : 'f -> 'f level -> 'f level
  (** Add a flushed memtable to L0. *)

  val encode : Buffer.t -> int level -> unit
  val decode : string -> int -> int level * int

  val search : file_meta level -> string -> K.entry option
  (** The newest version of the key within the level. *)
end

(* The files an engine writes (see {!Make.parse_file_name}). *)
type file = Sst of int | Wal of int | Manifest

module Make (P : POLICY) = struct
  type state = {
    mem : Memtable.t;
    levels : file_meta P.level array;
    pins : int Atomic.t; (* 1 for being current + one per active reader *)
    state_retired : bool Atomic.t;
  }

  type t = {
    env : Env.t;
    cfg : P.config;
    settings : settings;
    compact : t -> unit; (* the policy's compaction, run to quiescence *)
    state : state Atomic.t;
    writer : Mutex.t; (* serializes puts and structural changes *)
    seq : int Atomic.t; (* last assigned sequence number *)
    mutable wal : Log_file.Writer.t;
    mutable wal_gen : int;
    next_fid : int Atomic.t;
    snap_mutex : Mutex.t;
    snapshots : (int, int) Hashtbl.t; (* ticket -> seqno of active scans *)
    mutable next_ticket : int;
    logical_written : int Atomic.t;
    put_count : int Atomic.t;
    closed : bool Atomic.t;
    obs : Obs.t;
    attr : Attr.t; (* per-op tail-latency cause attribution *)
    tm_put : Obs.Timer.t;
    tm_get : Obs.Timer.t;
    tm_delete : Obs.Timer.t;
    tm_scan : Obs.Timer.t;
    ctr_stalls : Obs.Counter.t; (* puts that paid an inline flush/compaction *)
    ctr_wal_appends : Obs.Counter.t;
    ctr_io_errors : Obs.Counter.t; (* Io_errors observed by maintenance paths *)
    (* Per-level shape counters (comparable across the three engines):
       bytes landing in level i (flush/compaction outputs), bytes read
       out of level i as compaction input, and gets served by level i. *)
    lvl_written : Obs.Counter.t array;
    lvl_compacted : Obs.Counter.t array;
    lvl_reads : Obs.Counter.t array;
  }

  let sst_name fid = Printf.sprintf "%s_%08d.sst" P.name fid
  let wal_name gen = Printf.sprintf "%s_wal_%08d.log" P.name gen
  let manifest_name = String.uppercase_ascii P.name ^ "_MANIFEST"

  let parse_file_name name =
    let number pattern =
      Scanf.sscanf_opt name (Scanf.format_from_string (P.name ^ pattern) "%d") Fun.id
    in
    match (number "_%d.sst%!", number "_wal_%d.log%!") with
    | Some fid, _ -> Some (Sst fid)
    | None, Some gen -> Some (Wal gen)
    | None, None -> if name = manifest_name then Some Manifest else None

  let env t = t.env
  let logical_bytes_written t = Atomic.get t.logical_written
  let obs t = t.obs
  let attr t = t.attr

  let metrics_dump t = function
    | `Json -> Obs.to_json t.obs
    | `Prometheus -> Obs.to_prometheus t.obs

  let write_amplification t =
    let written = (Io_stats.snapshot (Env.stats t.env)).Io_stats.bytes_written in
    let logical = logical_bytes_written t in
    if logical = 0 then 0.0 else float_of_int written /. float_of_int logical

  (* ---------------------------------------------------------------- *)
  (* File and state lifecycle                                          *)

  (* Remove a file no state references (a failed build's output). *)
  let discard t fm = try Env.delete t.env (sst_name fm.fid) with _ -> ()

  let file_release t fm =
    if Atomic.fetch_and_add fm.refs (-1) = 1 then Env.delete t.env (sst_name fm.fid)

  let state_files s = Array.to_list s.levels |> List.concat_map P.files

  let release_state t s =
    if Atomic.fetch_and_add s.pins (-1) = 1 && Atomic.get s.state_retired then
      List.iter (file_release t) (state_files s)

  (* Pin only from a positive count: a state whose last pin is gone has
     had its files released, and reviving it would release them again,
     deleting files the newer states still hold. *)
  let rec pin_state t =
    let s = Atomic.get t.state in
    let p = Atomic.get s.pins in
    if p > 0 && Atomic.compare_and_set s.pins p (p + 1) then
      if Atomic.get s.state_retired then begin
        release_state t s;
        pin_state t
      end
      else s
    else begin
      Domain.cpu_relax ();
      pin_state t
    end

  (* Publish [s'] as current. Caller holds the writer mutex and must have
     bumped refs of every file included in [s']. *)
  let publish t s' =
    let old = Atomic.get t.state in
    Atomic.set t.state s';
    Atomic.set old.state_retired true;
    release_state t old

  let fresh_state ~mem ~levels =
    let s = { mem; levels; pins = Atomic.make 1; state_retired = Atomic.make false } in
    List.iter (fun fm -> ignore (Atomic.fetch_and_add fm.refs 1)) (state_files s);
    s

  (* ---------------------------------------------------------------- *)
  (* Manifest: next_fid, wal_gen, seq, level count, then each level    *)

  let store_manifest t levels =
    let buf = Buffer.create 256 in
    Varint.write buf (Atomic.get t.next_fid);
    Varint.write buf t.wal_gen;
    Varint.write buf (Atomic.get t.seq);
    Varint.write buf (Array.length levels);
    Array.iter (fun level -> P.encode buf (P.map (fun fm -> fm.fid) level)) levels;
    Meta_file.store t.env ~name:manifest_name (Buffer.contents buf)

  let load_manifest env =
    Meta_file.decode env ~name:manifest_name (fun payload ->
        let next_fid, pos = Varint.read payload 0 in
        let wal_gen, pos = Varint.read payload pos in
        let seq, pos = Varint.read payload pos in
        let n_levels, pos = Varint.read payload pos in
        let pos = ref pos in
        let levels =
          Array.init n_levels (fun _ ->
              let level, p = P.decode payload !pos in
              pos := p;
              level)
        in
        (next_fid, wal_gen, seq, levels))

  (* ---------------------------------------------------------------- *)
  (* Building SSTables                                                 *)

  let open_file_meta env fid =
    let reader = Sstable.Reader.open_ env (sst_name fid) in
    let smallest = Option.value ~default:"" (Sstable.Reader.first_key reader) in
    let largest = Option.value ~default:"" (Sstable.Reader.last_key reader) in
    let bytes = try Env.size env (sst_name fid) with Not_found -> 0 in
    { fid; reader; smallest; largest; bytes; refs = Atomic.make 0 }

  let build_file t entries =
    let build () =
      let fid = Atomic.fetch_and_add t.next_fid 1 in
      let builder =
        Sstable.Builder.create t.env ~block_size:sstable_block_bytes ~bloom_bits_per_key
          ~with_bloom:true ~name:(sst_name fid) ~min_key:"" ()
      in
      (try
         List.iter (Sstable.Builder.add builder) entries;
         Sstable.Builder.finish builder
       with exn ->
         Sstable.Builder.abort builder;
         raise exn);
      open_file_meta t.env fid
    in
    match P.file_span with
    | None -> build ()
    | Some name ->
      Obs.Trace.with_span (Obs.trace t.obs) ~name
        ~attrs:[ ("entries", List.length entries) ]
        (fun sp ->
          let fm = build () in
          Obs.Trace.add_attr sp "bytes" fm.bytes;
          fm)

  let entry_bytes (e : K.entry) =
    String.length e.key + (match e.value with Some v -> String.length v | None -> 0) + 16

  (* Split sorted entries into files of about [target] bytes, cutting
     only between distinct keys. No partial output survives a failed
     multi-file build. *)
  let build_files t ~target entries =
    let files = ref [] in
    let emit group = files := build_file t (List.rev group) :: !files in
    (try
       let group, _ =
         List.fold_left
           (fun (group, bytes) (e : K.entry) ->
             match group with
             | (prev : K.entry) :: _ when bytes >= target && not (String.equal prev.key e.key) ->
               emit group;
               ([ e ], entry_bytes e)
             | _ -> (e :: group, bytes + entry_bytes e))
           ([], 0) entries
       in
       if group <> [] then emit group
     with exn ->
       List.iter (discard t) !files;
       raise exn);
    List.rev !files

  (* ---------------------------------------------------------------- *)
  (* Snapshot registry (atomic scans)                                  *)

  let register_snapshot t seqno =
    Mutex.lock t.snap_mutex;
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    Hashtbl.replace t.snapshots ticket seqno;
    Mutex.unlock t.snap_mutex;
    ticket

  let unregister_snapshot t ticket =
    Mutex.lock t.snap_mutex;
    Hashtbl.remove t.snapshots ticket;
    Mutex.unlock t.snap_mutex

  (* Oldest version an active scan may still read: compactions keep it. *)
  let min_snapshot t =
    Mutex.lock t.snap_mutex;
    let m = Hashtbl.fold (fun _ s acc -> min s acc) t.snapshots (Atomic.get t.seq) in
    Mutex.unlock t.snap_mutex;
    m

  (* ---------------------------------------------------------------- *)
  (* Flush and commit (inline on the write path)                       *)

  (* Make [levels] current: store the manifest, then publish. Publishing
     retires the old state, whose refcount release deletes the inputs —
     the manifest on disk must already reference the outputs by then. On
     failure nothing is published and the [built] files are deleted.
     Caller holds the writer mutex. *)
  let commit t levels ~built =
    (try store_manifest t levels
     with exn ->
       List.iter (discard t) built;
       raise exn);
    publish t (fresh_state ~mem:(Atomic.get t.state).mem ~levels)

  (* All callers hold the writer mutex, so no put can race a flush: the
     memtable and WAL are frozen for the duration.

     Failure atomicity: build the L0 file and the rotated WAL first, then
     commit through the manifest, and only then publish the new state and
     delete the old WAL. An I/O failure before the manifest write leaves
     the engine exactly as it was (old WAL, old manifest, memtable
     intact) with any partial files removed; a crash after the manifest
     write recovers the new state. *)
  let flush_memtable t =
    let s = Atomic.get t.state in
    if not (Memtable.is_empty s.mem) then
      Obs.Trace.with_span (Obs.trace t.obs) ~name:"memtable_flush"
        ~attrs:[ ("bytes", Memtable.byte_size s.mem) ]
        (fun _sp ->
          (* Mild compaction bounded by active snapshots. Readers keep
             seeing the old state (which still holds the memtable) until
             publication. *)
          let file =
            build_file t
              (K.to_list
                 (K.compact ~min_retained_version:(min_snapshot t) ~drop_tombstones:false
                    (Memtable.to_iter s.mem)))
          in
          let old_wal_gen = t.wal_gen in
          let old_wal = t.wal in
          let new_wal_gen = old_wal_gen + 1 in
          let new_wal =
            try Log_file.Writer.create t.env (wal_name new_wal_gen)
            with exn ->
              discard t file;
              raise exn
          in
          let levels = Array.copy s.levels in
          levels.(0) <- P.add_l0 file levels.(0);
          t.wal_gen <- new_wal_gen;
          t.wal <- new_wal;
          (try store_manifest t levels
           with exn ->
             t.wal_gen <- old_wal_gen;
             t.wal <- old_wal;
             Log_file.Writer.close new_wal;
             (try Env.delete t.env (wal_name new_wal_gen) with _ -> ());
             discard t file;
             raise exn);
          publish t (fresh_state ~mem:Memtable.empty ~levels);
          Obs.Counter.add t.lvl_written.(0) file.bytes;
          Log_file.Writer.close old_wal;
          try Env.delete t.env (wal_name old_wal_gen) with _ -> ())

  (* ---------------------------------------------------------------- *)
  (* Operations                                                        *)

  let put_entry t key value_opt =
    (* Writer-mutex queueing behind another put's inline flush is where
       LSM write stalls spread; charge the blocking wait to Lock_wait
       only when the fast try_lock loses. *)
    if not (Mutex.try_lock t.writer) then
      Attr.timed Attr.Lock_wait (fun () -> Mutex.lock t.writer);
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.writer)
      (fun () ->
        let seq = Atomic.fetch_and_add t.seq 1 + 1 in
        let entry : K.entry = { key; value = value_opt; version = seq; counter = 0 } in
        ignore (Log_file.Writer.append t.wal entry);
        Obs.Counter.incr t.ctr_wal_appends;
        if t.settings.sync_writes then Log_file.Writer.fsync t.wal
        else begin
          let n = Atomic.fetch_and_add t.put_count 1 + 1 in
          if t.settings.wal_fsync_every > 0 && n mod t.settings.wal_fsync_every = 0 then
            Log_file.Writer.fsync t.wal
        end;
        let s = Atomic.get t.state in
        let mem' = Memtable.add s.mem entry in
        (* Memtable-only change: levels and their refcounts are shared
           with the previous state, and so are the pins/retired cells —
           readers pinning either record guard the same files. *)
        Atomic.set t.state { s with mem = mem' };
        ignore
          (Atomic.fetch_and_add t.logical_written
             (String.length key + match value_opt with Some v -> String.length v | None -> 0));
        if Memtable.byte_size mem' >= t.settings.memtable_bytes then begin
          (* This put pays for the flush (and any cascading compaction)
             inline — the paper's write stall. The put itself is already
             durable and applied; if maintenance hits an I/O failure it
             rolled itself back, so count the fault and carry on — the
             next put over the threshold retries. *)
          Obs.Counter.incr t.ctr_stalls;
          try
            Attr.timed Attr.Compaction (fun () ->
                flush_memtable t;
                t.compact t)
          with Env.Io_error _ | Env.Corruption _ -> Obs.Counter.incr t.ctr_io_errors
        end)

  let put t key value =
    Attr.with_op t.attr Attr.Put t.tm_put (fun () -> put_entry t key (Some value))

  let delete t key = Attr.with_op t.attr Attr.Delete t.tm_delete (fun () -> put_entry t key None)

  (* Levels are age-ordered, so the first level holding the key has its
     newest version. *)
  let find_in_levels t s key =
    let rec search i =
      if i >= Array.length s.levels then None
      else
        match P.search s.levels.(i) key with
        | Some e ->
          if i < Array.length t.lvl_reads then Obs.Counter.incr t.lvl_reads.(i);
          Some e
        | None -> search (i + 1)
    in
    search 0

  let get t key =
    Attr.with_op t.attr Attr.Get t.tm_get @@ fun () ->
    let s = pin_state t in
    Fun.protect
      ~finally:(fun () -> release_state t s)
      (fun () ->
        let result =
          match Memtable.find_latest s.mem key with
          | Some e -> Some e
          | None ->
            (* The memtable missed: the rest is SSTable reads. *)
            Attr.timed Attr.Disk_read (fun () -> find_in_levels t s key)
        in
        match result with
        | Some { K.value = Some v; _ } -> Some v
        | Some { K.value = None; _ } | None -> None)

  let scan t ?limit ~low ~high () =
    Attr.with_op t.attr Attr.Scan t.tm_scan @@ fun () ->
    if String.compare low high > 0 then []
    else begin
      (* Take the writer mutex briefly so (state, seq) are consistent:
         every put with a smaller seqno has already published. *)
      Mutex.lock t.writer;
      let s = pin_state t in
      let snap = Atomic.get t.seq in
      Mutex.unlock t.writer;
      let ticket = register_snapshot t snap in
      Fun.protect
        ~finally:(fun () ->
          unregister_snapshot t ticket;
          release_state t s)
        (fun () ->
          let iters =
            Memtable.iter_range s.mem ~low ~high
            :: List.filter_map
                 (fun fm ->
                   if overlaps fm ~low ~high then
                     Some (K.upto ~high (Sstable.Reader.iter_from fm.reader low))
                   else None)
                 (state_files s)
          in
          let it =
            K.dedup (K.filter (fun (e : K.entry) -> e.version <= snap) (K.merge iters))
          in
          let max_count = match limit with None -> max_int | Some l -> l in
          let rec go acc count =
            if count >= max_count then List.rev acc
            else
              match it () with
              | None -> List.rev acc
              | Some { K.value = None; _ } -> go acc count
              | Some { K.key; K.value = Some v; _ } -> go ((key, v) :: acc) (count + 1)
          in
          go [] 0)
    end

  (* ---------------------------------------------------------------- *)
  (* Open / close                                                      *)

  let setup_obs env =
    let obs = Obs.create () in
    List.iter (Obs.Trace.declare (Obs.trace obs)) P.span_names;
    List.iter (fun (name, read) -> Obs.probe obs name read) (Env.counters env);
    obs

  (* Snapshot-time level shape, next to the byte-flow counters above. *)
  let register_probes t =
    let level i = P.files (Atomic.get t.state).levels.(i) in
    for i = 0 to P.max_levels - 1 do
      Obs.probe t.obs (Printf.sprintf "level%d.bytes" i) (fun () -> total_bytes (level i));
      Obs.probe t.obs (Printf.sprintf "level%d.files" i) (fun () -> List.length (level i))
    done

  (* Reopen the files the manifest lists, sweep what it does not, and
     replay the WAL (an LSM must; contrast §3.5). Returns the recovered
     memtable, levels, last seqno and the reopened WAL. *)
  let recover env obs ~wal_gen ~seq level_fids =
    Obs.Trace.with_span (Obs.trace obs) ~name:"recovery" (fun recovery_sp ->
        let levels = Array.map (P.map (open_file_meta env)) level_fids in
        let levels =
          Array.append levels
            (Array.make (max 0 (P.max_levels - Array.length levels)) P.empty_level)
        in
        (* Sweep orphans: sstables a crashed build left outside the
           manifest, WALs of generations other than the live one, and
           leftover manifest tmp files. *)
        let live_fids = Array.to_list level_fids |> List.concat_map P.files in
        List.iter
          (fun name ->
            let swept =
              match parse_file_name name with
              | Some (Sst fid) -> not (List.mem fid live_fids)
              | Some (Wal gen) -> gen <> wal_gen
              | Some Manifest | None -> name = manifest_name ^ ".tmp"
            in
            if swept && not (Env.is_quarantined name) then try Env.delete env name with _ -> ())
          (Env.list_files env);
        let mem = ref Memtable.empty in
        let max_seq = ref seq in
        let replayed = ref 0 in
        List.iter
          (fun (_off, e) ->
            mem := Memtable.add !mem e;
            incr replayed;
            if e.K.version > !max_seq then max_seq := e.K.version)
          (Log_file.Reader.entries env (wal_name wal_gen));
        Obs.Trace.add_attr recovery_sp "entries" !replayed;
        (!mem, levels, !max_seq, Log_file.Writer.open_append env (wal_name wal_gen)))

  (* Opens or recovers. [compact] is the policy's compaction, run after
     every flush and by {!compact_now}. *)
  let open_ ~compact cfg env =
    let settings = P.settings cfg in
    (* Level reads flow through [Sstable.Reader], which consults the
       env's shared block cache; installing here unifies the budget with
       any other engine opened over the same env. *)
    Env.install_block_cache env ~capacity_bytes:settings.block_cache_bytes;
    let obs = setup_obs env in
    let manifest = load_manifest env in
    let next_fid, wal_gen, (mem, levels, seq, wal) =
      match manifest with
      | None ->
        let levels = Array.make P.max_levels P.empty_level in
        (0, 0, (Memtable.empty, levels, 0, Log_file.Writer.create env (wal_name 0)))
      | Some (next_fid, wal_gen, seq, level_fids) ->
        (next_fid, wal_gen, recover env obs ~wal_gen ~seq level_fids)
    in
    let counters name =
      Array.init P.max_levels (fun i -> Obs.counter obs (Printf.sprintf "level%d.%s" i name))
    in
    let t =
      {
        env;
        cfg;
        settings;
        compact;
        state = Atomic.make (fresh_state ~mem ~levels);
        writer = Mutex.create ();
        seq = Atomic.make seq;
        wal;
        wal_gen;
        next_fid = Atomic.make next_fid;
        snap_mutex = Mutex.create ();
        snapshots = Hashtbl.create 16;
        next_ticket = 0;
        logical_written = Atomic.make 0;
        put_count = Atomic.make 0;
        closed = Atomic.make false;
        obs;
        attr = Attr.create ~enabled:settings.attr_enabled obs;
        tm_put = Obs.timer obs "db.put";
        tm_get = Obs.timer obs "db.get";
        tm_delete = Obs.timer obs "db.delete";
        tm_scan = Obs.timer obs "db.scan";
        ctr_stalls = Obs.counter obs (P.name ^ ".stalls");
        ctr_wal_appends = Obs.counter obs "wal.appends";
        ctr_io_errors = Obs.counter obs "io.errors";
        lvl_written = counters "bytes_written";
        lvl_compacted = counters "bytes_compacted";
        lvl_reads = counters "read_hits";
      }
    in
    if Option.is_none manifest then store_manifest t levels;
    register_probes t;
    t

  let compact_now t =
    Mutex.lock t.writer;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.writer)
      (fun () ->
        flush_memtable t;
        t.compact t)

  let flush_wal t = Log_file.Writer.fsync t.wal

  let close t =
    if Atomic.compare_and_set t.closed false true then begin
      Log_file.Writer.fsync t.wal;
      Env.fsync_all t.env;
      Log_file.Writer.close t.wal
    end

  let level_file_counts t =
    Array.to_list (Array.map (fun level -> List.length (P.files level)) (Atomic.get t.state).levels)

  let level_bytes t =
    Array.to_list (Array.map (fun level -> total_bytes (P.files level)) (Atomic.get t.state).levels)
end
