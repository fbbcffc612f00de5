open Evendb_util
open Evendb_sstable
open Evendb_obs
open Evendb_lsm.Lsm_tree

module Config = struct
  type t = {
    memtable_bytes : int;
    max_fragments_per_guard : int;
    guard_bytes : int;
    sync_writes : bool;
    wal_fsync_every : int;
    attr_enabled : bool;
    block_cache_bytes : int;
  }

  let mib = 1024 * 1024

  let default =
    {
      memtable_bytes = 4 * mib;
      max_fragments_per_guard = 4;
      guard_bytes = 8 * mib;
      sync_writes = false;
      wal_fsync_every = 32768;
      attr_enabled = true;
      block_cache_bytes = 32 * mib;
    }

  let scaled ?(factor = 64) () =
    if factor <= 0 then invalid_arg "Flsm.Config.scaled: factor <= 0";
    {
      default with
      memtable_bytes = max 4096 (default.memtable_bytes / factor);
      guard_bytes = max 8192 (default.guard_bytes / factor);
    }
end

type 'f guard = {
  guard_key : string;
  fragments : 'f list; (* newest first *)
}

(* Guarded layout: each level is a guard list sorted by guard_key, the
   first guard being ""; L0 is that single guard. *)
module Policy = struct
  type config = Config.t
  type 'f level = 'f guard list

  let name = "flsm"
  let max_levels = 5
  let span_names = [ "fragment_append"; "guard_merge"; "memtable_flush"; "recovery" ]
  let file_span = Some "fragment_append"

  let settings (c : Config.t) =
    {
      memtable_bytes = c.memtable_bytes;
      sync_writes = c.sync_writes;
      wal_fsync_every = c.wal_fsync_every;
      attr_enabled = c.attr_enabled;
      block_cache_bytes = c.block_cache_bytes;
    }

  let empty_level = [ { guard_key = ""; fragments = [] } ]
  let map f = List.map (fun g -> { g with fragments = List.map f g.fragments })
  let files level = List.concat_map (fun g -> g.fragments) level

  let add_l0 frag = function
    | [ g ] -> [ { g with fragments = frag :: g.fragments } ]
    | _ -> assert false

  let encode buf guards =
    Varint.write buf (List.length guards);
    List.iter
      (fun g ->
        Varint.write buf (String.length g.guard_key);
        Buffer.add_string buf g.guard_key;
        Varint.write buf (List.length g.fragments);
        List.iter (Varint.write buf) g.fragments)
      guards

  let decode payload pos =
    let n_guards, pos = Varint.read payload pos in
    let pos = ref pos in
    let guards =
      List.init n_guards (fun _ ->
          let klen, p = Varint.read payload !pos in
          let guard_key = String.sub payload p klen in
          let n_frags, p = Varint.read payload (p + klen) in
          pos := p;
          let fragments =
            List.init n_frags (fun _ ->
                let fid, p = Varint.read payload !pos in
                pos := p;
                fid)
          in
          { guard_key; fragments })
    in
    (guards, !pos)

  (* Fragments never span below their guard's key, but fragments created
     before a guard split may extend past the next guard's key — so every
     guard with guard_key <= key must be examined, each fragment gated by
     its own range (and bloom). Within a level the newest hit wins:
     fragments come from different compactions and may hold different
     versions (the read penalty FLSM trades for its write savings). *)
  let search guards key =
    let best = ref None in
    let rec scan = function
      | g :: rest when String.compare g.guard_key key <= 0 ->
        List.iter
          (fun f ->
            if may_hold f key then
              match (Sstable.Reader.get f.reader key, !best) with
              | None, _ -> ()
              | Some e, Some b when K.entry_newer b e -> ()
              | Some e, _ -> best := Some e)
          g.fragments;
        scan rest
      | _ -> ()
    in
    scan guards;
    !best
end

include Make (Policy)

(* New fragments under guard [g]: the first joins [g], each further one
   opens a new guard at its first key. *)
let add_fragments g = function
  | [] -> [ g ]
  | first :: extras ->
    { g with fragments = first :: g.fragments }
    :: List.map (fun f -> { guard_key = f.smallest; fragments = [ f ] }) extras

(* Insert merged output of a parent guard into [child_guards] (sorted).
   Each child guard that overlaps gets one new fragment; oversized
   partitions spawn new guards. *)
let distribute_to_children ~build child_guards entries =
  let rec go guards entries =
    match guards with
    | [] -> []
    | [ g ] -> [ (g, entries) ]
    | g :: (g2 :: _ as rest) ->
      let mine, theirs =
        List.partition (fun (e : K.entry) -> String.compare e.key g2.guard_key < 0) entries
      in
      (g, mine) :: go rest theirs
  in
  if entries = [] then child_guards
  else
    List.concat_map
      (fun (g, part) -> if part = [] then [ g ] else add_fragments g (build part))
      (go child_guards entries)

(* Merge all fragments of a guard into one sorted entry list. *)
let merge_guard t guard ~drop_tombstones =
  Obs.Trace.with_span (Obs.trace t.obs) ~name:"guard_merge"
    ~attrs:[ ("fragments", List.length guard.fragments); ("bytes", total_bytes guard.fragments) ]
    (fun sp ->
      let merged =
        K.to_list
          (K.compact ~min_retained_version:(min_snapshot t) ~drop_tombstones
             (K.merge (List.map (fun f -> Sstable.Reader.iter f.reader) guard.fragments)))
      in
      Obs.Trace.add_attr sp "entries" (List.length merged);
      merged)

(* Tombstones of a bottom guard may only be dropped if no *other* bottom
   fragment (a wide pre-split sibling) overlaps the guard's data — it
   could hold an older value the tombstone still masks. *)
let sibling_overlap guards g =
  let first = List.hd g.fragments in
  let low = List.fold_left (fun acc f -> min acc f.smallest) first.smallest g.fragments
  and high = List.fold_left (fun acc f -> max acc f.largest) first.largest g.fragments in
  List.exists
    (fun g' -> g'.guard_key <> g.guard_key && List.exists (overlaps ~low ~high) g'.fragments)
    guards

(* Compact the whole of level [i] into level [i+1]: each guard's
   fragments are merged and the output appended under the child guards;
   level [i] is left with empty guards. Moving the entire level
   preserves the cross-level version ordering (a partially-moved level
   could leave older sibling fragments above newer data). At the bottom
   level guards are merged in place instead. Caller holds the writer
   mutex. *)
let compact_level t i =
  let levels = Array.copy (Atomic.get t.state).levels in
  let bottom = i = Array.length levels - 1 in
  (* Bytes read out of level i as compaction input: every fragment for a
     level move, only multi-fragment guards for a bottom in-place merge.
     Counted only after a successful publish (failure atomicity). *)
  let input_bytes =
    List.fold_left
      (fun acc g ->
        if bottom && List.length g.fragments <= 1 then acc else acc + total_bytes g.fragments)
      0 levels.(i)
  in
  (* Every fragment this compaction writes, so a failure removes them. *)
  let built = ref [] in
  let build entries =
    let frags = build_files t ~target:t.cfg.guard_bytes entries in
    built := frags @ !built;
    frags
  in
  (try
     if bottom then
       levels.(i) <-
         List.concat_map
           (fun g ->
             if List.length g.fragments <= 1 then [ g ]
             else
               let drop_tombstones = not (sibling_overlap levels.(i) g) in
               add_fragments { g with fragments = [] } (build (merge_guard t g ~drop_tombstones)))
           levels.(i)
     else begin
       levels.(i + 1) <-
         List.fold_left
           (fun children g ->
             if g.fragments = [] then children
             else distribute_to_children ~build children (merge_guard t g ~drop_tombstones:false))
           levels.(i + 1) levels.(i);
       levels.(i) <- List.map (fun g -> { g with fragments = [] }) levels.(i)
     end
   with exn ->
     List.iter (discard t) !built;
     raise exn);
  commit t levels ~built:!built;
  Obs.Counter.add t.lvl_compacted.(i) input_bytes;
  Obs.Counter.add t.lvl_written.(if bottom then i else i + 1) (total_bytes !built)

let rec compact t =
  let levels = (Atomic.get t.state).levels in
  (* A level with an overfull guard moves down wholesale. *)
  let rec overfull i =
    if i >= Array.length levels then None
    else if
      List.exists (fun g -> List.length g.fragments > t.cfg.max_fragments_per_guard) levels.(i)
    then Some i
    else overfull (i + 1)
  in
  let doomed =
    if List.length (Policy.files levels.(0)) >= l0_compaction_trigger then Some 0 else overfull 1
  in
  match doomed with
  | None -> ()
  | Some i ->
    compact_level t i;
    compact t

let open_ ?(config = Config.default) env = open_ ~compact config env
let fragment_counts = level_file_counts
let guard_counts t = Array.to_list (Array.map List.length (Atomic.get t.state).levels)
