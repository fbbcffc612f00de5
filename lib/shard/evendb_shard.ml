(* Multi-domain front end: partition the key space into range shards,
   each an independent Db.t on its own flat sub-namespace of the shared
   environment (Env.sub / Backend.prefixed — "s00.", "s01.", ...).

   The store itself is already safe under arbitrary concurrency, but a
   single Db.t serializes structural work (manifest, checkpoints,
   maintenance) behind instance-wide points; disjoint shards remove
   every such point of contact between disjoint key ranges —
   KV-Tandem's scalable-front-end / persistent-tier split at laptop
   scale. Routing is a binary search over the split keys; scans visit
   only the shards their range touches, in key order, so the
   concatenation of per-shard results IS the merged cursor (ranges are
   disjoint and sorted).

   Group commit is the one thing the shards deliberately SHARE: under
   Sync, one committer serves every shard, so concurrent puts routed to
   different shards still coalesce into one batch (the committer fsyncs
   each distinct log in the batch once, and the journal makes the
   2nd..Nth fsync of one transaction nearly free). Per-shard committers
   would fragment the writer population — with uniform keys, d writers
   over d shards degenerate to batches of one, i.e. per-op fsync.

   Consistency: point ops hit exactly one shard and keep the full Db.t
   guarantees (including sync durability through the shared group
   committer). A cross-shard scan is a sequence of per-shard snapshots,
   not one global snapshot — same contract as any range-sharded store
   without a cross-shard transaction layer.

   The split keys are fixed at creation and persisted in a checksummed
   SHARDS file in the root namespace (see Layout), so every reopen
   (including post-crash recovery) rebuilds the same partition. *)

open Evendb_storage
open Evendb_core

type t = {
  env : Env.t;
  boundaries : string array; (* strictly increasing split keys *)
  shards : Db.t array; (* length = boundaries + 1 *)
  commit_obs : Evendb_obs.Obs.t option; (* shared committer's metrics (Sync only) *)
  closed : bool Atomic.t;
}

let check_boundaries boundaries =
  let n = Array.length boundaries + 1 in
  if n > Layout.max_shards then
    invalid_arg (Printf.sprintf "Evendb_shard: %d shards (max %d)" n Layout.max_shards);
  Array.iteri
    (fun i k ->
      if i > 0 && boundaries.(i - 1) >= k then
        invalid_arg "Evendb_shard: boundaries must be strictly increasing")
    boundaries

(* ------------------------------------------------------------------ *)

let open_ ?config ?(shared_commit = true) ?(boundaries = []) env =
  let requested = Array.of_list boundaries in
  check_boundaries requested;
  let boundaries =
    match Layout.load_shards env with
    | Some stored ->
      (* The on-disk partition is authoritative: data already lives in
         its shards' namespaces. Re-specifying a different one is a
         caller bug, not something to silently repartition over. *)
      if Array.length requested > 0 && stored <> requested then
        invalid_arg "Evendb_shard.open_: boundaries differ from the stored partition";
      stored
    | None ->
      Layout.store_shards env requested;
      requested
  in
  let cfg = match config with Some c -> c | None -> Config.default in
  (* One committer across all shards (see the header): it lives in its
     own Obs so batch/fsync counters aren't double-reported per shard.
     [shared_commit = false] gives each shard its own committer
     instead — the right trade when writers are shard-affine (batches
     would span every shard's log for no coalescing gain; independent
     per-shard commit streams overlap in the kernel). *)
  let committer, commit_obs =
    if shared_commit && cfg.Config.persistence = Config.Sync then begin
      let obs = Evendb_obs.Obs.create () in
      (Some (Group_commit.create ~max_batch:cfg.Config.group_commit_max_batch obs), Some obs)
    end
    else (None, None)
  in
  (* Install the block cache on the parent env before the sub-envs are
     cut: children inherit the parent's cache, so every shard shares
     ONE store-wide budget instead of multiplying it by shard count.
     Per-shard [Db.open_] then sees a cache already present and leaves
     it alone. *)
  Env.install_block_cache env ~capacity_bytes:cfg.Config.block_cache_bytes;
  let shards =
    Array.init
      (Array.length boundaries + 1)
      (fun i -> Db.open_ ~config:cfg ?committer (Layout.shard_env env i))
  in
  { env; boundaries; shards; commit_obs; closed = Atomic.make false }

let shard_count t = Array.length t.shards
let boundaries t = Array.to_list t.boundaries
let env t = t.env
let shard t i = t.shards.(i)

(* Index of the shard covering [key]: the number of split keys <= key. *)
let route t key =
  let lo = ref 0 and hi = ref (Array.length t.boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.boundaries.(mid) <= key then lo := mid + 1 else hi := mid
  done;
  !lo

let put t key value = Db.put t.shards.(route t key) key value
let get t key = Db.get t.shards.(route t key) key
let delete t key = Db.delete t.shards.(route t key) key

let scan t ?(limit = max_int) ~low ~high () =
  if low > high || limit <= 0 then []
  else begin
    (* Shards are disjoint, sorted ranges: visiting them in order and
       concatenating per-shard results is the merged cursor. Stop as
       soon as the limit fills — later shards only hold larger keys. *)
    let i1 = route t high in
    let rec go i remaining acc =
      if i > i1 || remaining <= 0 then List.concat (List.rev acc)
      else
        let rows = Db.scan t.shards.(i) ~limit:remaining ~low ~high () in
        go (i + 1) (remaining - List.length rows) (rows :: acc)
    in
    go (route t low) limit []
  end

let maintain t = Array.iter Db.maintain t.shards
let checkpoint t = Array.iter Db.checkpoint t.shards

let close t =
  if not (Atomic.exchange t.closed true) then Array.iter Db.close t.shards

let logical_bytes_written t =
  Array.fold_left (fun acc db -> acc + Db.logical_bytes_written db) 0 t.shards

let chunk_count t = Array.fold_left (fun acc db -> acc + Db.chunk_count db) 0 t.shards

(* Shard 0's attribution instance: per-op frames are domain-local, so
   whichever shard's Db opened the frame receives the charge — but the
   harness wants a single handle. Cross-shard aggregation would need
   merge support in Attr; shard 0 is a representative sample under
   uniform routing. *)
let attr t = Db.attr t.shards.(0)

let metrics_dump t = function
  | `Prometheus ->
    (* The shared committer reports under shard="commit": its batches
       span shards, so charging them to any one shard would lie. *)
    let per_shard =
      Array.to_list (Array.mapi (fun i db -> (string_of_int i, Db.obs db)) t.shards)
    in
    let instances =
      match t.commit_obs with
      | Some obs -> per_shard @ [ ("commit", obs) ]
      | None -> per_shard
    in
    Evendb_obs.Obs.to_prometheus_many ~label:"shard" instances
  | `Json ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\"shards\":{";
    Array.iteri
      (fun i db ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%d\":" i);
        Buffer.add_string buf (Db.metrics_dump db `Json))
      t.shards;
    Buffer.add_char buf '}';
    (match t.commit_obs with
    | Some obs ->
      Buffer.add_string buf ",\"commit\":";
      Buffer.add_string buf (Evendb_obs.Obs.to_json obs)
    | None -> ());
    Buffer.add_char buf '}';
    Buffer.contents buf
