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
   is the resident entry with the lowest frequency, the least recently
   used of those on a tie. Each frequency keeps its entries in a list,
   oldest access first, and the lists hang off a list of frequencies,
   lowest first: an access moves its entry to the newest end of the
   next frequency's list and an eviction takes the head of the lowest,
   both in O(1). The byte budget is split evenly across shards and
   enforced per shard before insert, so total resident bytes never
   exceed the configured capacity. *)

open Evendb_util

type key = { space : int; file : string; index : int; hash : int }

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.index = b.index && a.space = b.space && String.equal a.file b.file
  let hash k = k.hash
end)

(* Resident blocks per [(space, file)]: most files that are created,
   renamed or deleted (logs, views, temporaries, new tables) have none
   cached, and invalidating them then costs a lookup per shard, not a
   pass over it. *)
module Files = Hashtbl.Make (struct
  type t = int * string

  let equal (s1, f1) (s2, f2) = s1 = s2 && String.equal f1 f2
  let hash (space, file) = Hashtbl.hash file + space
end)

(* A resident block in its frequency's list. [stamp] is the shard's
   tick at its last access; list order already follows it, a decay
   merges two lists by it. *)
type entry = {
  key : key;
  slice : Bigslice.t;
  mutable stamp : int;
  mutable freq : bucket;
  mutable older : entry;
  mutable newer : entry;
}

and bucket = {
  mutable count : int;
  mutable oldest : entry;
  mutable newest : entry;
  mutable lower : bucket;
  mutable higher : bucket;
}

(* The ends of the lists; never written. *)
let rec nil =
  {
    key = { space = -1; file = ""; index = -1; hash = 0 };
    slice = Bigslice.create 0;
    stamp = 0;
    freq = none;
    older = nil;
    newer = nil;
  }

and none = { count = -1; oldest = nil; newest = nil; lower = none; higher = none }

type shard = {
  mutex : Mutex.t;
  budget : int;
  tbl : entry Tbl.t;
  files : int Files.t;
  mutable coldest : bucket; (* the lowest frequency's list, [none] when empty *)
  mutable resident : int;
  mutable accesses : int;
  mutable tick : int;
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
            tbl = Tbl.create 64;
            files = Files.create 16;
            coldest = none;
            resident = 0;
            accesses = 0;
            tick = 0;
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

(* The file name's string hash and the two ints, mixed so that the low
   bits (the shard's table) and the high bits (the shard) are both
   spread. *)
let make_key ~space ~file ~index =
  let h = Hashtbl.hash file + (index * 0x1c69b3f74ac4ae35) + (space * 0x3c79ac492ba7b653) in
  let h = (h lxor (h lsr 31)) * 0x2545f4914f6cdd1d in
  { space; file; index; hash = (h lxor (h lsr 29)) land max_int }

let shard_index t key = (key.hash lsr 40) mod Array.length t.shards
let shard_of t key = t.shards.(shard_index t key)

let push b e =
  e.freq <- b;
  e.older <- b.newest;
  e.newer <- nil;
  if b.newest == nil then b.oldest <- e else b.newest.newer <- e;
  b.newest <- e

(* The list of frequency [count] just above [b] ([none]: at the
   bottom), made if it does not exist. *)
let bucket_above sh b count =
  let next = if b == none then sh.coldest else b.higher in
  if next != none && next.count = count then next
  else begin
    let fresh = { count; oldest = nil; newest = nil; lower = b; higher = next } in
    if b == none then sh.coldest <- fresh else b.higher <- fresh;
    if next != none then next.lower <- fresh;
    fresh
  end

(* Take [e] out of its list, and the list out of the shard if that
   empties it. *)
let unlink sh e =
  let b = e.freq in
  if e.older == nil then b.oldest <- e.newer else e.older.newer <- e.newer;
  if e.newer == nil then b.newest <- e.older else e.newer.older <- e.older;
  if b.oldest == nil then begin
    if b.lower == none then sh.coldest <- b.higher else b.lower.higher <- b.higher;
    if b.higher != none then b.higher.lower <- b.lower
  end

let stamp sh e =
  sh.tick <- sh.tick + 1;
  e.stamp <- sh.tick

let touch sh e =
  stamp sh e;
  let b = e.freq in
  if b.oldest == b.newest && (b.higher == none || b.higher.count > b.count + 1) then
    (* Alone in its list, and no list to join: the list moves up. *)
    b.count <- b.count + 1
  else begin
    let up = bucket_above sh b (b.count + 1) in
    unlink sh e;
    push up e
  end

let insert sh key slice =
  let e = { key; slice; stamp = 0; freq = none; older = nil; newer = nil } in
  stamp sh e;
  (* Only a decay makes frequency 0, and then it is the lowest list. *)
  let below = if sh.coldest.count = 0 then sh.coldest else none in
  push (bucket_above sh below 1) e;
  Tbl.add sh.tbl key e;
  let file = (key.space, key.file) in
  Files.replace sh.files file (1 + Option.value ~default:0 (Files.find_opt sh.files file));
  sh.resident <- sh.resident + Bigslice.length slice

let remove sh e =
  unlink sh e;
  Tbl.remove sh.tbl e.key;
  let file = (e.key.space, e.key.file) in
  (match Files.find_opt sh.files file with
  | Some n when n > 1 -> Files.replace sh.files file (n - 1)
  | _ -> Files.remove sh.files file);
  sh.resident <- sh.resident - Bigslice.length e.slice

(* Halve every frequency. The lists of 2k and 2k + 1 become one, in
   order of last access. *)
let decay t sh =
  sh.accesses <- sh.accesses + 1;
  if sh.accesses >= t.decay_every then begin
    sh.accesses <- 0;
    let halved = Tbl.fold (fun _ e acc -> (e.freq.count / 2, e) :: acc) sh.tbl [] in
    let order (c1, e1) (c2, e2) = if c1 <> c2 then Int.compare c1 c2 else Int.compare e1.stamp e2.stamp in
    sh.coldest <- none;
    let top = ref none in
    List.iter
      (fun (count, e) ->
        if !top.count <> count then top := bucket_above sh !top count;
        push !top e)
      (List.sort order halved)
  end

let evict_until t sh ~need =
  while sh.resident + need > sh.budget && sh.coldest != none do
    remove sh sh.coldest.oldest;
    Atomic.incr t.eviction_count
  done

let find_or_fill t ~space ~file ~index ~fill =
  let key = make_key ~space ~file ~index in
  let sh = shard_of t key in
  let cached =
    with_lock sh (fun () ->
        match Tbl.find_opt sh.tbl key with
        | Some e ->
          touch sh e;
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
          (match Tbl.find_opt sh.tbl key with
          | Some e ->
            (* Raced with another fill: keep the resident entry. *)
            touch sh e
          | None ->
            evict_until t sh ~need:len;
            insert sh key slice);
          decay t sh
        end);
    slice

let remove_matching t ?(holds = fun _ -> true) pred =
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          if holds sh then begin
            let doomed = Tbl.fold (fun k e acc -> if pred k then e :: acc else acc) sh.tbl [] in
            List.iter (remove sh) doomed
          end))
    t.shards

let invalidate_file t ~space ~file =
  remove_matching t
    ~holds:(fun sh -> Files.mem sh.files (space, file))
    (fun k -> k.space = space && String.equal k.file file)

let invalidate_space t ~space = remove_matching t (fun k -> k.space = space)

let clear t = remove_matching t (fun _ -> true)

let resident_bytes t =
  Array.fold_left (fun acc sh -> acc + with_lock sh (fun () -> sh.resident)) 0 t.shards

let hits t = Atomic.get t.hit_count
let misses t = Atomic.get t.miss_count
let fills t = Atomic.get t.fill_count
let evictions t = Atomic.get t.eviction_count

module Internal = struct
  let shard t ~space ~file ~index = shard_index t (make_key ~space ~file ~index)

  let eviction_order t =
    Array.map
      (fun sh ->
        with_lock sh (fun () ->
            let rec entries e acc = if e == nil then acc else entries e.newer (e :: acc) in
            let rec lists b acc = if b == none then acc else lists b.higher (entries b.oldest acc) in
            List.rev_map (fun e -> (e.key.space, e.key.file, e.key.index)) (lists sh.coldest [])))
      t.shards
end
