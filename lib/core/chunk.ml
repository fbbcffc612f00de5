open Evendb_util
open Evendb_bloom
open Evendb_munk

type freq = { count : int; epoch : int }

let no_freq = { count = 0; epoch = 0 }

type t = {
  chunk_id : int;
  min_key_v : string;
  next_ref : t option Atomic.t;
  funk_ref : Funk.t Atomic.t;
  munk_ref : Munk.t option Atomic.t;
  bloom_ref : Partitioned_bloom.t option Atomic.t;
  bloom_mutex : Mutex.t;
  lock : Rwlock.t;
  funk_change : Mutex.t;
  counter : int Atomic.t;
  retired_flag : bool Atomic.t;
  freq_ref : freq Atomic.t;
  gets : int Atomic.t;
  puts : int Atomic.t;
  scans : int Atomic.t;
  munk_hits : int Atomic.t;
  row_hits : int Atomic.t;
  funk_reads : int Atomic.t;
  rebalances : int Atomic.t;
  splits : int Atomic.t;
}

let create_inheriting ~id ~min_key ~funk ~munk ~counter ~freq =
  {
    chunk_id = id;
    min_key_v = min_key;
    next_ref = Atomic.make None;
    funk_ref = Atomic.make funk;
    munk_ref = Atomic.make munk;
    bloom_ref = Atomic.make None;
    bloom_mutex = Mutex.create ();
    lock = Rwlock.create ();
    funk_change = Mutex.create ();
    counter = Atomic.make counter;
    retired_flag = Atomic.make false;
    freq_ref = Atomic.make freq;
    gets = Atomic.make 0;
    puts = Atomic.make 0;
    scans = Atomic.make 0;
    munk_hits = Atomic.make 0;
    row_hits = Atomic.make 0;
    funk_reads = Atomic.make 0;
    rebalances = Atomic.make 0;
    splits = Atomic.make 0;
  }

let create ~id ~min_key ~funk ~munk =
  create_inheriting ~id ~min_key ~funk ~munk ~counter:0 ~freq:no_freq

let id t = t.chunk_id
let min_key t = t.min_key_v
let next t = Atomic.get t.next_ref
let set_next t n = Atomic.set t.next_ref n
let funk t = Atomic.get t.funk_ref
let set_funk t f = Atomic.set t.funk_ref f
let munk t = Atomic.get t.munk_ref
let set_munk t m = Atomic.set t.munk_ref m
let retired t = Atomic.get t.retired_flag
let retire t = Atomic.set t.retired_flag true
let rebalance_lock t = t.lock
let funk_change_mutex t = t.funk_change
let next_counter t = Atomic.fetch_and_add t.counter 1
let counter_base t = Atomic.get t.counter
let freq t = Atomic.get t.freq_ref
let set_freq t f = Atomic.set t.freq_ref f

let bloom_note_put t ~key ~log_offset =
  match Atomic.get t.bloom_ref with
  | None -> ()
  | Some _ ->
    Mutex.lock t.bloom_mutex;
    (* Re-read under the mutex: the bloom may have been dropped by a
       concurrent munk load. *)
    (match Atomic.get t.bloom_ref with
    | Some bloom -> Partitioned_bloom.add bloom ~key ~log_offset
    | None -> ());
    Mutex.unlock t.bloom_mutex

let bloom_segments t key =
  Mutex.lock t.bloom_mutex;
  let result =
    match Atomic.get t.bloom_ref with
    | None -> None
    | Some bloom -> Some (Partitioned_bloom.segments_maybe_containing bloom key)
  in
  Mutex.unlock t.bloom_mutex;
  result

let set_bloom t b =
  Mutex.lock t.bloom_mutex;
  Atomic.set t.bloom_ref b;
  Mutex.unlock t.bloom_mutex

let record_get t (comp : Read_stats.component) =
  Atomic.incr t.gets;
  match comp with
  | Munk_cache -> Atomic.incr t.munk_hits
  | Row_cache -> Atomic.incr t.row_hits
  | Funk_log | Sstable | Missing -> Atomic.incr t.funk_reads

let record_put t = Atomic.incr t.puts
let record_scan t = Atomic.incr t.scans
let record_rebalance t = Atomic.incr t.rebalances
let record_split t = Atomic.incr t.splits

type stat = {
  st_gets : int;
  st_puts : int;
  st_scans : int;
  st_munk_hits : int;
  st_row_hits : int;
  st_funk_reads : int;
  st_rebalances : int;
  st_splits : int;
  st_heat : int;
}

let counters t =
  [
    ("gets", t.gets);
    ("puts", t.puts);
    ("scans", t.scans);
    ("munk_hits", t.munk_hits);
    ("row_hits", t.row_hits);
    ("funk_reads", t.funk_reads);
    ("rebalances", t.rebalances);
    ("splits", t.splits);
  ]

let stat t ~heat =
  {
    st_gets = Atomic.get t.gets;
    st_puts = Atomic.get t.puts;
    st_scans = Atomic.get t.scans;
    st_munk_hits = Atomic.get t.munk_hits;
    st_row_hits = Atomic.get t.row_hits;
    st_funk_reads = Atomic.get t.funk_reads;
    st_rebalances = Atomic.get t.rebalances;
    st_splits = Atomic.get t.splits;
    st_heat = heat;
  }

let reset_counters t = List.iter (fun (_, a) -> Atomic.set a 0) (counters t)

let counter_residue t =
  List.filter_map
    (fun (name, a) ->
      if Atomic.get a <> 0 then Some (Printf.sprintf "chunk.%d.%s" t.chunk_id name) else None)
    (counters t)

let covers t ~key =
  String.compare t.min_key_v key <= 0
  &&
  match next t with
  | None -> true
  | Some nxt -> String.compare key (min_key nxt) < 0
