(* Per-layer measurement, all from the benchmark side:

   - a timing middleware under the engine's Env, pricing every storage
     read, append and fsync the engine issues;
   - flat samples of what the engines already publish (registry
     counters, timers and spans, Read_stats, Attr totals, block-cache
     totals), differenced around each measured round.

   Isolated calls into single layers are in [Micro]. *)

open Evendb_storage
open Evendb_core
module Obs = Evendb_obs.Obs
module Attr = Evendb_obs.Attr
module Json = Evendb_telemetry.Tiny_json

(* ------------------------------------------------------------------ *)
(* Timing middleware *)

type io = { calls : int Atomic.t; ns : int Atomic.t; bytes : int Atomic.t }
type timing = { on : bool Atomic.t; read : io; append : io; fsync : io }

let io () = { calls = Atomic.make 0; ns = Atomic.make 0; bytes = Atomic.make 0 }
let timing () = { on = Atomic.make true; read = io (); append = io (); fsync = io () }

let timed tm io ~bytes f =
  if not (Atomic.get tm.on) then f ()
  else begin
    let t0 = Obs.now_ns () in
    let r = f () in
    ignore (Atomic.fetch_and_add io.ns (Obs.now_ns () - t0));
    Atomic.incr io.calls;
    ignore (Atomic.fetch_and_add io.bytes bytes);
    r
  end

let wrap tm (Backend.B (module Inner) : Backend.packed) : Backend.packed =
  Backend.B
    (module struct
      type handle = Inner.handle

      let backend_name = "timed+" ^ Inner.backend_name
      let create = Inner.create
      let open_append = Inner.open_append
      let append h b ~pos ~len = timed tm tm.append ~bytes:len (fun () -> Inner.append h b ~pos ~len)
      let handle_size = Inner.handle_size
      let fsync h = timed tm tm.fsync ~bytes:0 (fun () -> Inner.fsync h)
      let close = Inner.close
      let size = Inner.size
      let read_at name ~off ~len = timed tm tm.read ~bytes:len (fun () -> Inner.read_at name ~off ~len)
      let pread name ~off ~len = timed tm tm.read ~bytes:len (fun () -> Inner.pread name ~off ~len)
      let exists = Inner.exists
      let delete = Inner.delete
      let rename = Inner.rename
      let list_files = Inner.list_files
      let sync_namespace () = timed tm tm.fsync ~bytes:0 Inner.sync_namespace
      let supports_crash = Inner.supports_crash
      let crash = Inner.crash
    end)

(* An environment over [base], under the timing middleware when traced. *)
let env tm base = Env.of_backend (match tm with None -> base | Some tm -> wrap tm base)

(* ------------------------------------------------------------------ *)
(* Flat samples *)

type sample = (string, float) Hashtbl.t

let bump (s : sample) k v = Hashtbl.replace s k (v +. Option.value ~default:0.0 (Hashtbl.find_opt s k))

(* Registry documents, summed: a sharded store nests one per shard plus
   its shared committer's. *)
let rec add_registry s doc =
  let num j = Option.value ~default:0.0 (Json.to_float j) in
  let fields key = Option.value ~default:[] (Option.bind (Json.member key doc) Json.to_obj) in
  match Json.member "counters" doc with
  | Some _ ->
    List.iter (fun (k, v) -> bump s k (num v)) (fields "counters" @ fields "gauges");
    List.iter
      (fun (k, t) ->
        let f n = Option.fold ~none:0.0 ~some:num (Json.member n t) in
        bump s (k ^ ".count") (f "count");
        bump s (k ^ ".sum_ns") (f "count" *. f "mean_ns"))
      (fields "timers");
    List.iter
      (fun (k, sp) ->
        let f n = Option.fold ~none:0.0 ~some:num (Json.member n sp) in
        bump s ("span." ^ k ^ ".count") (f "count");
        bump s ("span." ^ k ^ ".total_ns") (f "total_ns");
        List.iter
          (fun (a, v) -> bump s ("span." ^ k ^ "." ^ a) (num v))
          (Option.value ~default:[] (Option.bind (Json.member "attrs" sp) Json.to_obj)))
      (fields "spans")
  | None ->
    List.iter
      (fun (i, shard) ->
        let puts = Option.bind (Json.member "timers" shard) (Json.member "db.put") in
        bump s ("puts.shard" ^ i) (Option.value ~default:0.0 (Option.bind (Option.bind puts (Json.member "count")) Json.to_float)))
      (Option.value ~default:[] (Option.bind (Json.member "shards" doc) Json.to_obj));
    List.iter (fun (_, d) -> add_registry s d) (Option.value ~default:[] (Json.to_obj doc))

let sample (engine : Evendb_ycsb.Engine.t) dbs tm : sample =
  let s = Hashtbl.create 256 in
  add_registry s (Json.parse (engine.metrics ()));
  List.iter
    (fun db ->
      let rs = Db.read_stats db in
      List.iter
        (fun (c, frac) ->
          let n = frac *. float_of_int rs.Read_stats.total in
          let name = Read_stats.component_name c in
          bump s ("rs." ^ name ^ ".count") n;
          match List.assoc_opt c rs.Read_stats.latencies with
          | Some l -> bump s ("rs." ^ name ^ ".sum_ns") (n *. l.Read_stats.mean)
          | None -> ())
        rs.Read_stats.fractions)
    dbs;
  (* A sharded store's handle is its shard 0's, which sees only the ops
     routed there; so per-op figures divide by the handle's own count. *)
  let a = engine.attr () in
  List.iter (fun c -> bump s ("attr." ^ Attr.cause_name c) (float_of_int (Attr.cause_total_ns a c))) Attr.all_causes;
  List.iter
    (fun k ->
      bump s "attr.ops" (float_of_int (Attr.op_count a k));
      bump s "attr.ops_ns" (float_of_int (Attr.op_total_ns a k)))
    [ Attr.Put; Attr.Get; Attr.Delete; Attr.Scan ];
  (match Env.block_cache engine.env with
  | Some bc ->
    let open Evendb_cache.Block_cache in
    bump s "bc.hits" (float_of_int (hits bc));
    bump s "bc.misses" (float_of_int (misses bc));
    bump s "bc.fills" (float_of_int (fills bc))
  | None -> ());
  Option.iter
    (fun tm ->
      List.iter
        (fun (name, io) ->
          bump s ("mw." ^ name ^ ".calls") (float_of_int (Atomic.get io.calls));
          bump s ("mw." ^ name ^ ".ns") (float_of_int (Atomic.get io.ns));
          bump s ("mw." ^ name ^ ".bytes") (float_of_int (Atomic.get io.bytes)))
        [ ("read", tm.read); ("append", tm.append); ("fsync", tm.fsync) ])
    tm;
  s

(* [acc += after - before], key by key. *)
let accumulate acc ~before ~after =
  Hashtbl.iter (fun k v -> bump acc k (v -. Option.value ~default:0.0 (Hashtbl.find_opt before k))) after
