(* Shared block cache: a sharded, byte-capacity-bounded cache of
   checksummed sstable blocks, sitting between [Env] and
   [Sstable.Reader] so every engine, chunk, and shard draws from one
   budget. Entries are bigarray-backed slices (mmap windows on disk,
   private buffers in memory) — a hit hands the cached slice straight
   to the decoder, no copy and no re-verification: the fill closure
   verified the block's CRC once, and cached blocks are trusted
   thereafter.

   Eviction is LFU with decay-by-halving, per shard, mirroring the munk
   cache's policy ([Evendb_core.Lfu]): each access bumps the entry's
   frequency, periodic halving lets cold entries age out, and the victim
   is the resident entry with the lowest frequency. The byte budget is
   split evenly across shards and enforced per shard before insert, so
   total resident bytes never exceed the configured capacity. *)

open Evendb_util

type key = { space : int; file : string; index : int }

type entry = { slice : Bigslice.t; mutable freq : int }

type shard = {
  mutex : Mutex.t;
  budget : int;
  tbl : (key, entry) Hashtbl.t;
  mutable resident : int;
  mutable accesses : int;
}

type t = {
  shards : shard array;
  capacity : int;
  decay_every : int;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  fill_count : int Atomic.t;
  eviction_count : int Atomic.t;
}

let default_shards = 8

let create ?(shards = default_shards) ~capacity_bytes () =
  if capacity_bytes < 0 then invalid_arg "Block_cache.create: capacity_bytes < 0";
  if shards <= 0 then invalid_arg "Block_cache.create: shards <= 0";
  let budget = capacity_bytes / shards in
  {
    shards =
      Array.init shards (fun _ ->
          {
            mutex = Mutex.create ();
            budget;
            tbl = Hashtbl.create 64;
            resident = 0;
            accesses = 0;
          });
    capacity = capacity_bytes;
    decay_every = 4096;
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
    fill_count = Atomic.make 0;
    eviction_count = Atomic.make 0;
  }

let capacity_bytes t = t.capacity

let with_lock sh f =
  Mutex.lock sh.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.mutex) f

let shard_of t key = t.shards.(Hashtbl.hash key land max_int mod Array.length t.shards)

let decay t sh =
  sh.accesses <- sh.accesses + 1;
  if sh.accesses >= t.decay_every then begin
    sh.accesses <- 0;
    Hashtbl.iter (fun _ e -> e.freq <- e.freq / 2) sh.tbl
  end

(* Coldest resident entry of the shard. *)
let victim sh =
  Hashtbl.fold
    (fun k e best ->
      match best with
      | Some (_, bf, _) when bf <= e.freq -> best
      | _ -> Some (k, e.freq, Bigslice.length e.slice))
    sh.tbl None

let evict_until t sh ~need =
  let rec go () =
    if sh.resident + need > sh.budget then
      match victim sh with
      | None -> ()
      | Some (k, _, len) ->
        Hashtbl.remove sh.tbl k;
        sh.resident <- sh.resident - len;
        Atomic.incr t.eviction_count;
        go ()
  in
  go ()

let find_or_fill t ~space ~file ~index ~fill =
  let key = { space; file; index } in
  let sh = shard_of t key in
  let cached =
    with_lock sh (fun () ->
        match Hashtbl.find_opt sh.tbl key with
        | Some e ->
          e.freq <- e.freq + 1;
          decay t sh;
          Some e.slice
        | None -> None)
  in
  match cached with
  | Some slice ->
    Atomic.incr t.hit_count;
    slice
  | None ->
    Atomic.incr t.miss_count;
    (* Fill outside the shard lock: the read (and CRC check) must not
       serialize unrelated lookups. Two racing fills of the same block
       both verify; the loser's insert just replaces an identical
       entry. *)
    let slice = fill () in
    Atomic.incr t.fill_count;
    let len = Bigslice.length slice in
    with_lock sh (fun () ->
        if len <= sh.budget then begin
          (match Hashtbl.find_opt sh.tbl key with
          | Some e ->
            (* Raced with another fill: keep the resident entry. *)
            e.freq <- e.freq + 1
          | None ->
            evict_until t sh ~need:len;
            Hashtbl.replace sh.tbl key { slice; freq = 1 };
            sh.resident <- sh.resident + len);
          decay t sh
        end);
    slice

let remove_matching t pred =
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          let doomed =
            Hashtbl.fold (fun k e acc -> if pred k then (k, e) :: acc else acc) sh.tbl []
          in
          List.iter
            (fun (k, e) ->
              Hashtbl.remove sh.tbl k;
              sh.resident <- sh.resident - Bigslice.length e.slice)
            doomed))
    t.shards

let invalidate_file t ~space ~file =
  remove_matching t (fun k -> k.space = space && k.file = file)

let invalidate_space t ~space = remove_matching t (fun k -> k.space = space)

let clear t = remove_matching t (fun _ -> true)

let resident_bytes t =
  Array.fold_left (fun acc sh -> acc + with_lock sh (fun () -> sh.resident)) 0 t.shards

let hits t = Atomic.get t.hit_count
let misses t = Atomic.get t.miss_count
let fills t = Atomic.get t.fill_count
let evictions t = Atomic.get t.eviction_count
