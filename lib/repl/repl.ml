open Evendb_storage
open Evendb_core
module Obs = Evendb_obs.Obs
module Attr = Evendb_obs.Attr
module K = Evendb_util.Kv_iter

(* Replication change-stream (ROADMAP item 5).

   The primary's [Db.set_commit_hook] tap fires once per put/delete
   after the write is acked — under Sync persistence that is after the
   group-commit fsync covering it — so the stream, by construction,
   never contains unacked data. The {!Source} assigns each record a
   dense LSN; a per-key supersede filter drops records already overtaken
   at emission, so the stream converges to the primary's own per-key
   resolution. The {!Follower} applies records into a standby Sync
   store and persists a monotonic applied-LSN watermark *after* the
   durable apply, making redelivery idempotent (applies at or below the
   watermark are skipped; re-applying a lost-watermark record rewrites
   the same logical state). {!Ship} moves records across a fault-
   injectable {!Link} with a bounded in-flight window and bounded
   retry + backoff.

   Invariant (see README): a write acked by the primary is either
   already applied on the replica or still recoverable — present in the
   primary's durable funk logs *and* retained in the source stream from
   the replica's watermark onward. Failover ({!promote}) fences the old
   primary and tops the replica up from the fenced store's recovered
   state, so promotion loses nothing acked. *)

type record = {
  lsn : int; (* dense, 1-based *)
  key : string;
  value : string option; (* [None] = delete *)
  version : int;
  counter : int;
}

(* ------------------------------------------------------------------ *)
(* Source: the primary-side stream buffer                              *)

module Source = struct
  type t = {
    mutex : Mutex.t;
    mutable buf : record array;
    mutable len : int;
    latest : (string, int * int) Hashtbl.t; (* key -> newest emitted (version, counter) *)
  }

  let dummy = { lsn = 0; key = ""; value = None; version = 0; counter = 0 }

  let create () =
    { mutex = Mutex.create (); buf = Array.make 64 dummy; len = 0; latest = Hashtbl.create 256 }

  let with_lock t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let publish t (e : K.entry) =
    with_lock t (fun () ->
        let superseded =
          match Hashtbl.find_opt t.latest e.key with
          | Some (v, c) -> v > e.version || (v = e.version && c >= e.counter)
          | None -> false
        in
        if not superseded then begin
          Hashtbl.replace t.latest e.key (e.version, e.counter);
          if t.len = Array.length t.buf then begin
            let bigger = Array.make (2 * Array.length t.buf) dummy in
            Array.blit t.buf 0 bigger 0 t.len;
            t.buf <- bigger
          end;
          t.buf.(t.len) <-
            { lsn = t.len + 1; key = e.key; value = e.value; version = e.version; counter = e.counter };
          t.len <- t.len + 1
        end)

  let attach t db = Db.set_commit_hook db (Some (publish t))
  let detach db = Db.set_commit_hook db None

  let head_lsn t = with_lock t (fun () -> t.len)

  (* Records with [after < lsn <= after + max], stream order. *)
  let from t ~after ~max =
    with_lock t (fun () ->
        let hi = min t.len (after + max) in
        let rec collect acc i = if i < after then acc else collect (t.buf.(i) :: acc) (i - 1) in
        if hi <= after then [] else collect [] (hi - 1))
end

(* ------------------------------------------------------------------ *)
(* Follower: a standby store applying the stream                       *)

module Follower = struct
  type t = {
    db : Db.t;
    env : Env.t;
    mutable applied : int;
    applied_gauge : Obs.Gauge.t;
  }

  (* Watermark file: varint LSN + CRC32C LE trailer, tmp+fsync+rename.
     Persisted only after the record it covers is durably applied, so a
     crash can only lose watermark progress — never claim it. *)
  let store_watermark env lsn =
    let buf = Buffer.create 16 in
    Evendb_util.Varint.write buf lsn;
    Meta_file.store env ~name:Layout.repl_lsn_file (Buffer.contents buf)

  let load_watermark env =
    Option.value ~default:0
      (Meta_file.decode env ~name:Layout.repl_lsn_file (fun payload ->
           fst (Evendb_util.Varint.read payload 0)))

  let open_ ?(config = Config.default) env =
    (* The standby must ack nothing it could lose: force Sync. *)
    let config = { config with Config.persistence = Config.Sync } in
    if not (Env.exists env Layout.follower_file) then begin
      let f = Env.create env Layout.follower_file in
      Env.append f "follower";
      Env.fsync f;
      Env.close_file f
    end;
    let db = Db.open_ ~config env in
    let applied = load_watermark env in
    let applied_gauge = Obs.gauge (Db.obs db) "repl.applied_lsn" in
    Obs.Gauge.set applied_gauge applied;
    (* Eager-register so the family appears (zeroed, with HELP/TYPE) in
       every follower exposition, not only after the first promote. *)
    ignore (Obs.counter (Db.obs db) "repl.failovers");
    { db; env; applied; applied_gauge }

  let db t = t.db
  let applied_lsn t = t.applied

  let apply t r =
    if r.lsn > t.applied then begin
      (match r.value with
      | Some v -> Db.put t.db r.key v
      | None -> Db.delete t.db r.key);
      (* The put is durable (Sync) before the watermark moves. *)
      store_watermark t.env r.lsn;
      t.applied <- r.lsn;
      Obs.Gauge.set t.applied_gauge r.lsn
    end

  let close t = Db.close t.db
end

(* ------------------------------------------------------------------ *)
(* Link: an in-process transport with deterministic fault injection    *)

exception Stream_fault

module Link = struct
  type t = {
    rng : Random.State.t option;
    fail_ppm : int;
    mutable sends : int;
    mutable failures : int;
  }

  let create ?fault_seed ?(fault_rate_ppm = 0) () =
    {
      rng = Option.map (fun s -> Random.State.make [| s |]) fault_seed;
      fail_ppm = fault_rate_ppm;
      sends = 0;
      failures = 0;
    }

  let send t f =
    t.sends <- t.sends + 1;
    (match t.rng with
    | Some rng when t.fail_ppm > 0 && Random.State.int rng 1_000_000 < t.fail_ppm ->
      t.failures <- t.failures + 1;
      raise Stream_fault
    | _ -> ());
    f ()

  let sends t = t.sends
  let failures t = t.failures
end

(* ------------------------------------------------------------------ *)
(* Ship: pump records source -> follower                               *)

module Ship = struct
  type t = {
    source : Source.t;
    follower : Follower.t;
    link : Link.t;
    window : int;
    backoff_ns : int;
    max_attempts : int;
    shipped : Obs.Counter.t;
    retries : Obs.Counter.t;
    lag : Obs.Gauge.t;
  }

  let create ?(config = Config.default) source follower link =
    let obs = Db.obs (Follower.db follower) in
    {
      source;
      follower;
      link;
      window = config.Config.repl_window;
      backoff_ns = config.Config.repl_retry_backoff_ns;
      max_attempts = 1000;
      shipped = Obs.counter obs "repl.records_shipped";
      retries = Obs.counter obs "repl.retries";
      lag = Obs.gauge obs "repl.lag_records";
    }

  let lag t = Source.head_lsn t.source - Follower.applied_lsn t.follower

  let deliver t r =
    let rec attempt n =
      match Link.send t.link (fun () -> Follower.apply t.follower r) with
      | () -> Obs.Counter.incr t.shipped
      | exception Stream_fault ->
        if n >= t.max_attempts then raise Stream_fault;
        Obs.Counter.incr t.retries;
        if t.backoff_ns > 0 then Unix.sleepf (float_of_int t.backoff_ns /. 1e9);
        attempt (n + 1)
    in
    attempt 1

  (* Drain the stream until the follower has applied everything the
     source has emitted; at most [repl_window] records are handed out
     per batch between watermark advances. *)
  let pump t =
    let rec drain () =
      let head = Source.head_lsn t.source in
      let applied = Follower.applied_lsn t.follower in
      if applied < head then begin
        let batch = Source.from t.source ~after:applied ~max:t.window in
        List.iter (fun r -> Attr.timed Attr.Repl_ship (fun () -> deliver t r)) batch;
        drain ()
      end
    in
    drain ();
    Obs.Gauge.set t.lag (lag t)
end

(* ------------------------------------------------------------------ *)
(* Failover                                                            *)

(* Inclusive upper bound for full-store differential scans; keys are
   assumed shorter than this (the harness and CLI key spaces are). *)
let scan_high = String.make 128 '\xff'

let promote ?primary follower =
  (match primary with
  | Some pdb ->
    (* Fence first: no write can be acked by the old primary after the
       state we are about to copy. *)
    if not (Db.fenced pdb) then Db.fence pdb;
    (* The replica's state is a subset of the primary's acked state (it
       only ever applied acked records), so overwriting per key with the
       primary's recovered durable state yields exactly that state —
       every acked-and-recovered write present, nothing invented. *)
    let src = Db.scan pdb ~low:"" ~high:scan_high () in
    let dst = Db.scan (Follower.db follower) ~low:"" ~high:scan_high () in
    let src_tbl = Hashtbl.create (List.length src + 1) in
    List.iter (fun (k, v) -> Hashtbl.replace src_tbl k v) src;
    List.iter
      (fun (k, _) ->
        if not (Hashtbl.mem src_tbl k) then Db.delete (Follower.db follower) k)
      dst;
    let dst_tbl = Hashtbl.create (List.length dst + 1) in
    List.iter (fun (k, v) -> Hashtbl.replace dst_tbl k v) dst;
    List.iter
      (fun (k, v) ->
        if Hashtbl.find_opt dst_tbl k <> Some v then Db.put (Follower.db follower) k v)
      src
  | None -> ());
  (* Leave follower mode: new writes are accepted directly, and a stale
     watermark must not suppress applies from some future stream. *)
  Env.delete follower.Follower.env Layout.follower_file;
  Env.delete follower.Follower.env Layout.repl_lsn_file;
  Db.checkpoint (Follower.db follower);
  Obs.Counter.incr (Obs.counter (Db.obs (Follower.db follower)) "repl.failovers");
  Follower.db follower
