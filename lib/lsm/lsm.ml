open Evendb_util
open Evendb_sstable
open Evendb_obs
open Lsm_tree

module Config = struct
  type t = {
    memtable_bytes : int;
    level_base_bytes : int;
    target_file_bytes : int;
    sync_writes : bool;
    wal_fsync_every : int;
    attr_enabled : bool;
    block_cache_bytes : int;
  }

  let mib = 1024 * 1024

  let default =
    {
      memtable_bytes = 4 * mib;
      level_base_bytes = 16 * mib;
      target_file_bytes = 4 * mib;
      sync_writes = false;
      wal_fsync_every = 32768;
      attr_enabled = true;
      block_cache_bytes = 32 * mib;
    }

  let scaled ?(factor = 64) () =
    if factor <= 0 then invalid_arg "Lsm.Config.scaled: factor <= 0";
    {
      default with
      memtable_bytes = max 4096 (default.memtable_bytes / factor);
      (* Keep L1 a few memtables wide even at small scale, or the tree
         grows unrealistically deep and write amplification explodes
         beyond what RocksDB would show. *)
      level_base_bytes = max 16384 (default.level_base_bytes * 4 / factor);
      target_file_bytes = max 4096 (default.target_file_bytes / factor);
    }
end

(* Leveled layout: L0 holds flushed memtables newest first and may
   overlap; each deeper level is sorted by smallest key and disjoint. *)
module Policy = struct
  type config = Config.t
  type 'f level = 'f list

  let name = "lsm"
  let max_levels = 7
  let span_names = [ "memtable_flush"; "compaction"; "recovery" ]
  let file_span = None

  let settings (c : Config.t) =
    {
      memtable_bytes = c.memtable_bytes;
      sync_writes = c.sync_writes;
      wal_fsync_every = c.wal_fsync_every;
      attr_enabled = c.attr_enabled;
      block_cache_bytes = c.block_cache_bytes;
    }

  let empty_level = []
  let map = List.map
  let files level = level
  let add_l0 file level = file :: level

  let encode buf fids =
    Varint.write buf (List.length fids);
    List.iter (Varint.write buf) fids

  let decode payload pos =
    let n, pos = Varint.read payload pos in
    let pos = ref pos in
    let fids =
      List.init n (fun _ ->
          let fid, p = Varint.read payload !pos in
          pos := p;
          fid)
    in
    (fids, !pos)

  (* L0 newest first, and at most one candidate file deeper down: the
     first hit is the newest. *)
  let search files key =
    List.find_map
      (fun fm -> if may_hold fm key then Sstable.Reader.get fm.reader key else None)
      files
end

include Make (Policy)

let level_size_multiplier = 10 (* each level below L1 holds this many times the one above *)

let level_limit t i =
  t.cfg.level_base_bytes
  * int_of_float (float_of_int level_size_multiplier ** float_of_int (i - 1))

(* Merge [inputs] (newest first, the priority order for merge ties) into
   new files of the target size. *)
let merge_files t inputs ~drop_tombstones =
  let merged =
    K.compact ~min_retained_version:(min_snapshot t) ~drop_tombstones
      (K.merge (List.map (fun fm -> Sstable.Reader.iter fm.reader) inputs))
  in
  build_files t ~target:t.cfg.target_file_bytes (K.to_list merged)

let by_smallest files = List.sort (fun a b -> String.compare a.smallest b.smallest) files

let rec compact t =
  let levels = (Atomic.get t.state).levels in
  let n = Array.length levels in
  let has_data_below i = Array.exists (fun files -> files <> []) (Array.sub levels i (n - i)) in
  if List.length levels.(0) >= l0_compaction_trigger then begin
    Obs.Trace.with_span (Obs.trace t.obs) ~name:"compaction" ~attrs:[ ("level", 0) ] (fun sp ->
        (* L0 -> L1: merge every L0 file with all overlapping L1 files. *)
        let l0 = levels.(0) in
        Obs.Trace.add_attr sp "bytes" (total_bytes l0);
        let low = List.fold_left (fun acc fm -> min acc fm.smallest) (List.hd l0).smallest l0 in
        let high = List.fold_left (fun acc fm -> max acc fm.largest) (List.hd l0).largest l0 in
        let l1_in, l1_out = List.partition (fun fm -> overlaps fm ~low ~high) levels.(1) in
        let new_files =
          merge_files t (l0 @ l1_in) ~drop_tombstones:(not (has_data_below 2 || l1_out <> []))
        in
        let levels' = Array.copy levels in
        levels'.(0) <- [];
        levels'.(1) <- by_smallest (new_files @ l1_out);
        commit t levels' ~built:new_files;
        Obs.Counter.add t.lvl_compacted.(0) (total_bytes l0);
        Obs.Counter.add t.lvl_compacted.(1) (total_bytes l1_in);
        Obs.Counter.add t.lvl_written.(1) (total_bytes new_files));
    compact t
  end
  else begin
    (* Leveled compaction for L1..: push the first file of the first
       overfull level into the level below. *)
    let rec overfull i =
      if i > n - 2 then None
      else if total_bytes levels.(i) > level_limit t i then Some i
      else overfull (i + 1)
    in
    match overfull 1 with
    | None -> ()
    | Some i -> (
      match levels.(i) with
      | [] -> ()
      | victim :: rest ->
        Obs.Trace.with_span (Obs.trace t.obs) ~name:"compaction"
          ~attrs:[ ("level", i); ("bytes", victim.bytes) ]
          (fun _sp ->
            let child_in, child_out =
              List.partition
                (fun fm -> overlaps fm ~low:victim.smallest ~high:victim.largest)
                levels.(i + 1)
            in
            let new_files =
              merge_files t (victim :: child_in)
                ~drop_tombstones:((not (has_data_below (i + 2))) && child_out = [])
            in
            let levels' = Array.copy levels in
            levels'.(i) <- rest;
            levels'.(i + 1) <- by_smallest (new_files @ child_out);
            commit t levels' ~built:new_files;
            Obs.Counter.add t.lvl_compacted.(i) victim.bytes;
            Obs.Counter.add t.lvl_compacted.(i + 1) (total_bytes child_in);
            Obs.Counter.add t.lvl_written.(i + 1) (total_bytes new_files));
        compact t)
  end

let open_ ?(config = Config.default) env = open_ ~compact config env
