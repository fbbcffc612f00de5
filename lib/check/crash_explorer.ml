open Evendb_util
open Evendb_storage

module type ENGINE = sig
  type t

  val name : string
  val open_ : Env.t -> t
  val close : t -> unit
  val put : t -> string -> string -> unit
  val delete : t -> string -> unit
  val get : t -> string -> string option
  val scan : t -> low:string -> high:string -> (string * string) list
  val barrier : t -> unit
  val durable_on_ack : bool
end

(* Thresholds shrunk so flushes, rebalances, splits and compactions all
   fire within a few hundred operations — the structurally interesting
   crash windows. *)

module Evendb_engine (M : sig
  val mode : Evendb_core.Config.persistence
end) : ENGINE with type t = Evendb_core.Db.t = struct
  open Evendb_core

  type t = Db.t

  let name =
    match M.mode with Config.Sync -> "evendb-sync" | Config.Async -> "evendb-async"

  let config =
    {
      Config.default with
      persistence = M.mode;
      max_chunk_bytes = 8 * 1024;
      munk_rebalance_bytes = 6 * 1024;
      munk_rebalance_appended = 64;
      funk_log_limit_no_munk = 2 * 1024;
      funk_log_limit_with_munk = 8 * 1024;
      munk_cache_capacity = 4;
    }

  let open_ env = Db.open_ ~config env
  let close = Db.close
  let put = Db.put
  let delete = Db.delete
  let get = Db.get
  let scan t ~low ~high = Db.scan t ~low ~high ()
  let barrier = Db.checkpoint
  let durable_on_ack = match M.mode with Config.Sync -> true | Config.Async -> false
end

module Evendb_sync = Evendb_engine (struct
  let mode = Evendb_core.Config.Sync
end)

module Evendb_async = Evendb_engine (struct
  let mode = Evendb_core.Config.Async
end)

module Lsm_engine : ENGINE = struct
  open Evendb_lsm

  type t = Lsm.t

  let name = "lsm-sync"

  let config =
    {
      Lsm.Config.default with
      memtable_bytes = 2 * 1024;
      level_base_bytes = 8 * 1024;
      target_file_bytes = 4 * 1024;
      sync_writes = true;
    }

  let open_ env = Lsm.open_ ~config env
  let close = Lsm.close
  let put = Lsm.put
  let delete = Lsm.delete
  let get = Lsm.get
  let scan t ~low ~high = Lsm.scan t ~low ~high ()
  let barrier _ = ()
  let durable_on_ack = true
end

module Flsm_engine : ENGINE = struct
  open Evendb_flsm

  type t = Flsm.t

  let name = "flsm-sync"

  let config =
    {
      Flsm.Config.default with
      memtable_bytes = 2 * 1024;
      guard_bytes = 8 * 1024;
      sync_writes = true;
    }

  let open_ env = Flsm.open_ ~config env
  let close = Flsm.close
  let put = Flsm.put
  let delete = Flsm.delete
  let get = Flsm.get
  let scan t ~low ~high = Flsm.scan t ~low ~high ()
  let barrier _ = ()
  let durable_on_ack = true
end

let evendb_sync = (module Evendb_sync : ENGINE with type t = Evendb_core.Db.t)
let evendb_async = (module Evendb_async : ENGINE with type t = Evendb_core.Db.t)
let lsm_sync = (module Lsm_engine : ENGINE)
let flsm_sync = (module Flsm_engine : ENGINE)

(* ------------------------------------------------------------------ *)
(* Workload recording                                                  *)

(* One recorded mutation. [s]/[l] bracket its journal footprint; an op
   is "attempted" at crash point k when s < k (some trace may exist)
   and "required" once durable_at <= k. *)
type record = {
  r_key : string;
  r_seq : int;
  r_value : string option; (* None = delete *)
  r_s : int;
  mutable r_durable_at : int;
}

let key_of i = Printf.sprintf "k%04d" i
let value_of seq = Printf.sprintf "v%08d" seq

let seq_of_value v =
  if String.length v = 9 && v.[0] = 'v' then int_of_string_opt (String.sub v 1 8) else None

type result = {
  engine : string;
  mode : Backend.crash_mode;
  ops_run : int;
  crash_points : int;
  violations : (int * string) list;
}

let mode_name = function
  | Backend.Drop_unsynced -> "drop"
  | Backend.Reorder_unsynced seed -> Printf.sprintf "reorder:%d" seed

(* The per-key persistence contract at crash point [k]: the recovered
   value must be at least as new as the newest durable mutation and no
   newer than anything attempted. *)
let check_key ~by_seq ~records ~k key observed =
  let ops = List.filter (fun r -> r.r_key = key) records in
  let attempted = List.filter (fun r -> r.r_s < k) ops in
  let required =
    List.fold_left
      (fun acc r ->
        if r.r_durable_at <= k then
          match acc with Some b when b.r_seq > r.r_seq -> acc | _ -> Some r
        else acc)
      None attempted
  in
  let floor_seq = match required with Some r -> r.r_seq | None -> -1 in
  match observed with
  | Some v -> (
    match seq_of_value v with
    | None -> Some (Printf.sprintf "%s: unparseable value %S" key v)
    | Some seq -> (
      match Hashtbl.find_opt by_seq seq with
      | None -> Some (Printf.sprintf "%s: value %S matches no operation" key v)
      | Some r ->
        if r.r_key <> key then
          Some (Printf.sprintf "%s: value %S belongs to key %s" key v r.r_key)
        else if r.r_value = None then
          Some (Printf.sprintf "%s: tombstone seq %d served as a value" key seq)
        else if r.r_s >= k then
          Some (Printf.sprintf "%s: value seq %d from an operation after the crash" key seq)
        else if seq < floor_seq then
          Some
            (Printf.sprintf "%s: lost durable write — serves seq %d, checkpointed seq %d" key
               seq floor_seq)
        else None))
  | None -> (
    match required with
    | None -> None
    | Some r when r.r_value = None -> None
    | Some r ->
      (* A newer attempted delete explains the absence. *)
      if List.exists (fun o -> o.r_seq > r.r_seq && o.r_value = None) attempted then None
      else
        Some
          (Printf.sprintf "%s: durable write lost — seq %d (checkpointed) missing" key r.r_seq)
    )

let explore (module E : ENGINE) ?(ops = 200) ?(keys = 24) ?(barrier_every = 40) ?(seed = 1)
    ?(scrub = true) ~mode () =
  let journal, packed = Backend.journaled_memory () in
  let env = Env.of_backend packed in
  let records = ref [] in
  let by_seq = Hashtbl.create (ops * 2) in
  let record r =
    records := r :: !records;
    Hashtbl.replace by_seq r.r_seq r
  in
  let jlen () = Backend.journal_length journal in
  (* Run the workload, journaling everything including open and close. *)
  let db = E.open_ env in
  let rng = Rng.create seed in
  let seq = ref 0 in
  let barrier () =
    E.barrier db;
    let l = jlen () in
    List.iter (fun r -> if r.r_durable_at > l then r.r_durable_at <- l) !records
  in
  for i = 1 to ops do
    let key = key_of (Rng.int rng keys) in
    let s = jlen () in
    let roll = Rng.int rng 10 in
    if roll < 7 then begin
      incr seq;
      let v = value_of !seq in
      E.put db key v;
      record
        {
          r_key = key;
          r_seq = !seq;
          r_value = Some v;
          r_s = s;
          r_durable_at = (if E.durable_on_ack then jlen () else max_int);
        }
    end
    else if roll < 9 then begin
      incr seq;
      E.delete db key;
      record
        {
          r_key = key;
          r_seq = !seq;
          r_value = None;
          r_s = s;
          r_durable_at = (if E.durable_on_ack then jlen () else max_int);
        }
    end
    else ignore (E.scan db ~low:(key_of 0) ~high:(key_of keys));
    if barrier_every > 0 && i mod barrier_every = 0 then barrier ()
  done;
  barrier ();
  E.close db;
  let total = jlen () in
  let records = !records in
  let violations = ref [] in
  let violate k msg = violations := (k, Printf.sprintf "[%s] %s" E.name msg) :: !violations in
  for k = 0 to total do
    let env_k = Env.of_backend (Backend.replay_prefix journal ~mode k) in
    match E.open_ env_k with
    | exception exn -> violate k (Printf.sprintf "recovery failed: %s" (Printexc.to_string exn))
    | db2 ->
      (try
         (* Point reads. *)
         for i = 0 to keys - 1 do
           let key = key_of i in
           match E.get db2 key with
           | observed -> (
             match check_key ~by_seq ~records ~k key observed with
             | Some msg -> violate k msg
             | None -> ())
           | exception exn ->
             violate k (Printf.sprintf "get %s raised %s" key (Printexc.to_string exn))
         done;
         (* Scan: sorted, duplicate-free, same per-key bounds. *)
         (match E.scan db2 ~low:(key_of 0) ~high:(key_of keys) with
         | pairs ->
           let rec sorted = function
             | (a, _) :: ((b, _) :: _ as rest) ->
               if String.compare a b >= 0 then
                 violate k (Printf.sprintf "scan unsorted/duplicate at %s >= %s" a b);
               sorted rest
             | _ -> ()
           in
           sorted pairs;
           List.iter
             (fun (key, v) ->
               match check_key ~by_seq ~records ~k key (Some v) with
               | Some msg -> violate k ("scan: " ^ msg)
               | None -> ())
             pairs;
           for i = 0 to keys - 1 do
             let key = key_of i in
             if not (List.mem_assoc key pairs) then
               match check_key ~by_seq ~records ~k key None with
               | Some msg -> violate k ("scan: " ^ msg)
               | None -> ()
           done
         | exception exn -> violate k (Printf.sprintf "scan raised %s" (Printexc.to_string exn)));
         (* Usability: the recovered store must accept new writes. *)
         (try
            E.put db2 "zz_probe" "alive";
            match E.get db2 "zz_probe" with
            | Some "alive" -> ()
            | other ->
              violate k
                (Printf.sprintf "probe write not readable: %s"
                   (match other with Some v -> v | None -> "missing"))
          with exn -> violate k (Printf.sprintf "probe write raised %s" (Printexc.to_string exn)))
       with exn -> violate k (Printf.sprintf "checks raised %s" (Printexc.to_string exn)));
      (try E.close db2
       with exn -> violate k (Printf.sprintf "close raised %s" (Printexc.to_string exn)));
      if scrub then
        List.iter
          (fun (f : Scrub.finding) ->
            let tolerated =
              match (f.f_kind, mode) with
              (* Only a reordering disk can tear a record mid-log; under
                 Drop_unsynced every surviving log is a clean prefix. *)
              | Scrub.Log_garbage, Backend.Reorder_unsynced _ -> true
              | Scrub.Log_garbage, Backend.Drop_unsynced -> false
              | _ -> f.f_severity = Scrub.Warning
            in
            if not tolerated then
              violate k
                (Printf.sprintf "scrub: %s: %s" f.f_file f.f_detail))
          (Scrub.scrub env_k).Scrub.findings
  done;
  {
    engine = E.name;
    mode;
    ops_run = ops;
    crash_points = total + 1;
    violations = List.rev !violations;
  }

let pp_result ppf r =
  Format.fprintf ppf "%s/%s: %d ops, %d crash points, %d violations@." r.engine
    (mode_name r.mode) r.ops_run r.crash_points (List.length r.violations);
  List.iter (fun (k, msg) -> Format.fprintf ppf "  @@%d %s@." k msg) r.violations

(* ------------------------------------------------------------------ *)
(* Pair exploration: primary + replica, crash either side anywhere     *)

module Repl = Evendb_repl.Repl

type pair_result = {
  pair_seed : int;
  pair_ops : int;
  primary_points : int;
  replica_points : int;
  pair_violations : (string * string) list;
}

(* Same shrunk thresholds as the single-node engines, plus a small
   shipping window and no real backoff sleep (the injected faults are
   deterministic; waiting between retries would only slow the sweep). *)
let pair_config =
  let open Evendb_core in
  {
    Config.default with
    persistence = Config.Sync;
    max_chunk_bytes = 8 * 1024;
    munk_rebalance_bytes = 6 * 1024;
    munk_rebalance_appended = 64;
    funk_log_limit_no_munk = 2 * 1024;
    funk_log_limit_with_munk = 8 * 1024;
    munk_cache_capacity = 4;
    repl_window = 8;
    repl_retry_backoff_ns = 0;
  }

let pair_scan_high = "zzzz"

let explore_pair ?(ops = 60) ?(keys = 24) ?(seed = 1) ?(fault_rate_ppm = 120_000) () =
  let open Evendb_core in
  let config = pair_config in
  let pjournal, ppacked = Backend.journaled_memory () in
  let rjournal, rpacked = Backend.journaled_memory () in
  let penv = Env.of_backend ppacked in
  let renv = Env.of_backend rpacked in
  let pjlen () = Backend.journal_length pjournal in
  let rjlen () = Backend.journal_length rjournal in
  let records = ref [] in
  let by_seq = Hashtbl.create (ops * 2) in
  let record r =
    records := r :: !records;
    Hashtbl.replace by_seq r.r_seq r
  in
  (* Timeline samples: (primary journal, replica journal) after each
     step. Sample 0 is the pre-open empty pair; a crash point p on the
     primary inside step i pairs with the replica frozen at the previous
     sample (shipping for step i only runs after the primary op acks),
     and a replica crash point r inside step i's shipping pairs with the
     primary having completed the step. *)
  let samples = ref [ (0, 0) ] in
  let sample () = samples := (pjlen (), rjlen ()) :: !samples in
  let source = Repl.Source.create () in
  let pdb = Db.open_ ~config penv in
  Repl.Source.attach source pdb;
  let follower = Repl.Follower.open_ ~config renv in
  let link = Repl.Link.create ~fault_seed:seed ~fault_rate_ppm () in
  let ship = Repl.Ship.create ~config source follower link in
  sample ();
  let rng = Rng.create seed in
  let seq = ref 0 in
  for _ = 1 to ops do
    let key = key_of (Rng.int rng keys) in
    let s = pjlen () in
    incr seq;
    if Rng.int rng 10 < 8 then begin
      let v = value_of !seq in
      Db.put pdb key v;
      record { r_key = key; r_seq = !seq; r_value = Some v; r_s = s; r_durable_at = pjlen () }
    end
    else begin
      Db.delete pdb key;
      record { r_key = key; r_seq = !seq; r_value = None; r_s = s; r_durable_at = pjlen () }
    end;
    Repl.Ship.pump ship;
    sample ()
  done;
  let final_state = Db.scan pdb ~low:"" ~high:pair_scan_high () in
  Repl.Follower.close follower;
  Db.close pdb;
  sample ();
  let records = !records in
  let samples = Array.of_list (List.rev !samples) in
  let violations = ref [] in
  let violate side k msg = violations := (Printf.sprintf "%s@%d" side k, msg) :: !violations in
  let safely f = try f () with _ -> () in
  let mode = Backend.Drop_unsynced in
  (* Everything a recovered replica serves must map to a write the
     primary acked strictly before the paired primary crash point — the
     stream is fed post-ack, so any other value means unacked (or
     invented) bytes leaked into the change-stream. *)
  let check_serves_only_acked fdb ~p_bound ~side ~at =
    if Repl.Follower.applied_lsn fdb > Repl.Source.head_lsn source then
      violate side at "watermark beyond the stream head";
    let db = Repl.Follower.db fdb in
    for i = 0 to keys - 1 do
      let key = key_of i in
      match Db.get db key with
      | None -> ()
      | Some v -> (
        match seq_of_value v with
        | None -> violate side at (Printf.sprintf "replica: %s: unparseable value %S" key v)
        | Some sq -> (
          match Hashtbl.find_opt by_seq sq with
          | None ->
            violate side at (Printf.sprintf "replica: %s: value %S matches no operation" key v)
          | Some r ->
            if r.r_key <> key then
              violate side at (Printf.sprintf "replica: %s: value %S belongs to key %s" key v r.r_key)
            else if r.r_value = None then
              violate side at (Printf.sprintf "replica: %s: tombstone seq %d served as a value" key sq)
            else if r.r_s >= p_bound then
              violate side at
                (Printf.sprintf "replica: %s: serves seq %d, not acked by the primary before the crash"
                   key sq)))
      | exception exn ->
        violate side at (Printf.sprintf "replica: get %s raised %s" key (Printexc.to_string exn))
    done
  in
  (* Primary dies at journal prefix [p]; the replica froze at [r].
     Recover both, promote, and require the promoted store to satisfy
     the single-node durability oracle at [p] — failover loses nothing
     the dead primary had acked. *)
  let check_primary_crash ~p ~r =
    let penv_k = Env.of_backend (Backend.replay_prefix pjournal ~mode p) in
    let renv_k = Env.of_backend (Backend.replay_prefix rjournal ~mode r) in
    match Repl.Follower.open_ ~config renv_k with
    | exception exn ->
      violate "primary" p
        (Printf.sprintf "replica (at %d) recovery failed: %s" r (Printexc.to_string exn))
    | f2 -> (
      check_serves_only_acked f2 ~p_bound:p ~side:"primary" ~at:p;
      match Db.open_ ~config penv_k with
      | exception exn ->
        safely (fun () -> Repl.Follower.close f2);
        violate "primary" p (Printf.sprintf "primary recovery failed: %s" (Printexc.to_string exn))
      | pdb2 ->
        (try
           let promoted = Repl.promote ~primary:pdb2 f2 in
           (match Db.put pdb2 "kfence" "x" with
           | () -> violate "primary" p "old primary accepted a write after fencing"
           | exception Db.Fenced -> ()
           | exception exn ->
             violate "primary" p
               (Printf.sprintf "fenced write raised %s, not Fenced" (Printexc.to_string exn)));
           for i = 0 to keys - 1 do
             let key = key_of i in
             match Db.get promoted key with
             | observed -> (
               match check_key ~by_seq ~records ~k:p key observed with
               | Some msg -> violate "primary" p ("promoted: " ^ msg)
               | None -> ())
             | exception exn ->
               violate "primary" p
                 (Printf.sprintf "promoted: get %s raised %s" key (Printexc.to_string exn))
           done;
           (try
              Db.put promoted "zz_probe" "alive";
              if Db.get promoted "zz_probe" <> Some "alive" then
                violate "primary" p "promoted probe write not readable"
            with exn ->
              violate "primary" p (Printf.sprintf "promoted probe raised %s" (Printexc.to_string exn)));
           Db.close promoted
         with exn ->
           violate "primary" p (Printf.sprintf "promotion raised %s" (Printexc.to_string exn));
           safely (fun () -> Repl.Follower.close f2));
        safely (fun () -> Db.close pdb2);
        List.iter
          (fun (f : Scrub.finding) ->
            let tolerated = f.f_severity = Scrub.Warning && f.f_kind <> Scrub.Log_garbage in
            if not tolerated then
              violate "primary" p (Printf.sprintf "promoted scrub: %s: %s" f.f_file f.f_detail))
          (Scrub.scrub renv_k).Scrub.findings)
  in
  (* Replica dies at journal prefix [r] while the primary (at [p])
     lives on. Recover the replica, resume shipping from the still-live
     source across a fresh faulty link, and require convergence to the
     primary's final state — the watermark is monotonic and redelivery
     idempotent, so a replica crash never loses or duplicates stream
     records. *)
  let check_replica_crash ~p ~r =
    let renv_k = Env.of_backend (Backend.replay_prefix rjournal ~mode r) in
    match Repl.Follower.open_ ~config renv_k with
    | exception exn ->
      violate "replica" r (Printf.sprintf "recovery failed: %s" (Printexc.to_string exn))
    | f2 ->
      check_serves_only_acked f2 ~p_bound:p ~side:"replica" ~at:r;
      let w0 = Repl.Follower.applied_lsn f2 in
      (try
         let link2 = Repl.Link.create ~fault_seed:(seed + r) ~fault_rate_ppm () in
         let ship2 = Repl.Ship.create ~config source f2 link2 in
         Repl.Ship.pump ship2;
         if Repl.Follower.applied_lsn f2 < w0 then violate "replica" r "watermark went backwards";
         if Repl.Ship.lag ship2 <> 0 then violate "replica" r "resume pump left lag";
         let got = Db.scan (Repl.Follower.db f2) ~low:"" ~high:pair_scan_high () in
         if got <> final_state then
           violate "replica" r
             (Printf.sprintf "resumed replica diverges from the primary (%d vs %d pairs)"
                (List.length got) (List.length final_state))
       with exn -> violate "replica" r (Printf.sprintf "resume raised %s" (Printexc.to_string exn)));
      safely (fun () -> Repl.Follower.close f2)
  in
  for i = 1 to Array.length samples - 1 do
    let p_prev, r_prev = samples.(i - 1) in
    let p_cur, r_cur = samples.(i) in
    for p = p_prev + 1 to p_cur do
      check_primary_crash ~p ~r:r_prev
    done;
    for r = r_prev + 1 to r_cur do
      check_replica_crash ~p:p_cur ~r
    done
  done;
  {
    pair_seed = seed;
    pair_ops = ops;
    primary_points = pjlen ();
    replica_points = rjlen ();
    pair_violations = List.rev !violations;
  }

let pp_pair_result ppf r =
  Format.fprintf ppf
    "pair seed %d: %d ops, %d primary + %d replica crash points, %d violations@." r.pair_seed
    r.pair_ops r.primary_points r.replica_points
    (List.length r.pair_violations);
  List.iter (fun (at, msg) -> Format.fprintf ppf "  %s %s@." at msg) r.pair_violations
