(* evendb: a small command-line front end to the store.

     evendb put  <dir> <key> <value>
     evendb get  <dir> <key>
     evendb del  <dir> <key>
     evendb scan <dir> <low> <high> [--limit N]
     evendb load <dir> [--items N] [--dist zipf|composite|uniform]
     evendb stat <dir> [--json | --prometheus] [--reset-check] [--url URL]
     evendb serve-telemetry <dir> [--port P] [--host H] [--duration-s S] [--drive OPS_PER_S]
     evendb top  <dir> [--url URL] [--interval-s S] [--iterations N] [--no-clear]
     evendb heat <dir> [--items N] [--ops N] [--dist zipf|composite] [--top K] [--json]
     evendb trace <dir> --out FILE [--ops N]
     evendb slow  <dir> [--out FILE] [--json] [--ops N] [--threshold-us US]
     evendb checkpoint <dir>
     evendb fsck <dir> [--repair]
     evendb snapshot <dir> [ID] [--drop]
     evendb backup <dir> <dest> [--snapshot ID] [--base ID]
     evendb restore <src> <dst>
     evendb fence <dir>
     evendb promote <dir> [--from PRIMARY_DIR]

   Every invocation except fsck and restore opens (recovering if
   needed) and cleanly closes the store in <dir>; fsck and restore work
   on raw directories without opening a store.

   A store carrying the FOLLOWER marker is a replication standby:
   direct writes (put/del/load) are refused — promote it first. A store
   carrying the FENCED marker is a deposed primary: every write raises
   and the CLI exits 5. *)

open Cmdliner
module Db = Evendb_core.Db
module Chunk = Evendb_core.Chunk
module Snapshot = Evendb_core.Snapshot
module Backup = Evendb_core.Backup
module Layout = Evendb_core.Layout
module Env = Evendb_storage.Env
module Fault = Evendb_storage.Fault
module Repl = Evendb_repl.Repl
module W = Evendb_ycsb.Workload
module Tel = Evendb_telemetry

module Shard = Evendb_shard

(* A directory holds either a plain store or a sharded one (created by
   [load --shards N]); the SHARDS partition file tells them apart. Every
   data command auto-detects — opening a sharded directory as a plain
   store would silently present a fresh empty root namespace. *)
type store = Plain of Db.t | Sharded of Shard.t

let run_guarded ~report f =
  match f () with
  | v ->
    report ();
    v
  | exception Env.Io_error info ->
    (* Storage failures (injected or real) are part of the CLI's
       contract: report and exit non-zero, don't crash. *)
    report ();
    Printf.eprintf "evendb: %s\n" (Evendb_storage.Io_error.to_string info);
    exit 3
  | exception Env.Corruption c ->
    report ();
    Printf.eprintf "evendb: %s\n" (Evendb_storage.Io_error.corruption_to_string c);
    exit 3
  | exception Db.Fenced ->
    report ();
    Printf.eprintf "evendb: store is fenced (deposed primary); writes are refused\n";
    exit 5

let fault_report faults () =
  Option.iter
    (fun p -> Printf.eprintf "injected faults (%s): %d\n" (Fault.profile_string p) (Fault.injected p))
    faults

(* Direct writes to a replication standby would diverge it from its
   primary silently; the only sanctioned write path is the stream (or
   promotion). Read-only commands pass [writes:false]. *)
(* Read-only commands may open a follower, but must not weaken it: the
   MODE marker follows the opening config, and a standby must stay
   Sync (an applied-but-unsynced stream record would be acked to the
   shipper yet lost on crash). *)
let follower_safe_config env config =
  if Env.exists env Layout.follower_file then
    Some
      {
        (Option.value config ~default:Evendb_core.Config.default) with
        Evendb_core.Config.persistence = Evendb_core.Config.Sync;
      }
  else config

let refuse_follower_writes env =
  if Env.exists env Layout.follower_file then begin
    Printf.eprintf
      "evendb: store is a replication follower; direct writes are refused (run `evendb \
       promote` to make it a primary)\n";
    exit 2
  end

let with_store ?fault_profile ?config ?(shards = 0) ?(writes = false) dir f =
  let faults = Option.map Fault.parse_profile fault_profile in
  run_guarded ~report:(fault_report faults) (fun () ->
      let env = Env.disk ?faults dir in
      if writes then refuse_follower_writes env;
      let config = follower_safe_config env config in
      if shards > 1 || Layout.is_sharded env then begin
        let boundaries =
          if Layout.is_sharded env then []
          else begin
            (* New sharded store: uniform split keys over the synthetic
               (YCSB-style) key space the load command populates. *)
            let key_space = 1 lsl Evendb_ycsb.Keys.key_bits in
            List.init (shards - 1) (fun i ->
                Evendb_ycsb.Keys.encode ((i + 1) * (key_space / shards)))
          end
        in
        let s = Shard.open_ ?config ~boundaries env in
        Fun.protect ~finally:(fun () -> Shard.close s) (fun () -> f (Sharded s))
      end
      else begin
        let db = Db.open_ ?config env in
        Fun.protect ~finally:(fun () -> Db.close db) (fun () -> f (Plain db))
      end)

(* Commands tied to one store's introspection surface (heat maps,
   traces, slow-op rings) stay single-store. *)
let with_db ?fault_profile ?config dir f =
  let faults = Option.map Fault.parse_profile fault_profile in
  run_guarded ~report:(fault_report faults) (fun () ->
      let env = Env.disk ?faults dir in
      if Layout.is_sharded env then begin
        Printf.eprintf "evendb: %s is a sharded store; this command works on plain stores\n" dir;
        exit 2
      end;
      let config = follower_safe_config env config in
      let db = Db.open_ ?config env in
      Fun.protect ~finally:(fun () -> Db.close db) (fun () -> f db))

let s_put = function Plain db -> Db.put db | Sharded s -> Shard.put s
let s_get = function Plain db -> Db.get db | Sharded s -> Shard.get s
let s_delete = function Plain db -> Db.delete db | Sharded s -> Shard.delete s

let s_scan st ~limit ~low ~high =
  match st with
  | Plain db -> Db.scan db ~limit ~low ~high ()
  | Sharded s -> Shard.scan s ~limit ~low ~high ()

let s_checkpoint = function Plain db -> Db.checkpoint db | Sharded s -> Shard.checkpoint s

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-profile" ] ~docv:"SEED:RATE"
        ~doc:
          "Inject deterministic storage faults for this invocation: each append/fsync/rename \
           fails with probability RATE under a schedule derived from SEED (e.g. 42:0.01). An \
           optional third field adds read corruption: SEED:RATE:CORRUPT flips one byte per \
           read with probability CORRUPT (e.g. 42:0:0.05), which surfaces as typed corruption \
           errors and shows up in the io.corruptions metric. The injected count is printed to \
           stderr on exit.")

let dir_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")
let key_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"KEY")

(* "host:port", "http://host:port[/path]" or a bare port, for commands
   that can talk to a live store's telemetry endpoint instead of
   opening the directory themselves. *)
let parse_endpoint url =
  let u =
    if String.length url >= 7 && String.sub url 0 7 = "http://" then
      String.sub url 7 (String.length url - 7)
    else url
  in
  let u = match String.index_opt u '/' with Some i -> String.sub u 0 i | None -> u in
  let fail () =
    Printf.eprintf "evendb: cannot parse endpoint %S (expected host:port)\n" url;
    exit 2
  in
  match String.rindex_opt u ':' with
  | Some i -> (
    let host = String.sub u 0 i in
    let host = if host = "" || host = "localhost" then "127.0.0.1" else host in
    match int_of_string_opt (String.sub u (i + 1) (String.length u - i - 1)) with
    | Some port -> (host, port)
    | None -> fail ())
  | None -> ( match int_of_string_opt u with Some port -> ("127.0.0.1", port) | None -> fail ())

let url_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "url" ] ~docv:"URL"
        ~doc:
          "Talk to a live store's telemetry endpoint (started with serve-telemetry) instead \
           of opening DIR — e.g. --url 127.0.0.1:9898.")
let value_arg = Arg.(required & pos 2 (some string) None & info [] ~docv:"VALUE")

let put_cmd =
  let run fault_profile dir key value =
    with_store ?fault_profile ~writes:true dir (fun st -> s_put st key value)
  in
  Cmd.v (Cmd.info "put" ~doc:"Write one key")
    Term.(const run $ fault_arg $ dir_arg $ key_arg $ value_arg)

let get_cmd =
  let run fault_profile dir key =
    with_store ?fault_profile dir (fun st ->
        match s_get st key with
        | Some v -> print_endline v
        | None ->
          prerr_endline "(not found)";
          exit 1)
  in
  Cmd.v (Cmd.info "get" ~doc:"Read one key") Term.(const run $ fault_arg $ dir_arg $ key_arg)

let del_cmd =
  let run fault_profile dir key =
    with_store ?fault_profile ~writes:true dir (fun st -> s_delete st key)
  in
  Cmd.v (Cmd.info "del" ~doc:"Delete one key") Term.(const run $ fault_arg $ dir_arg $ key_arg)

let scan_cmd =
  let low = Arg.(required & pos 1 (some string) None & info [] ~docv:"LOW") in
  let high = Arg.(required & pos 2 (some string) None & info [] ~docv:"HIGH") in
  let limit = Arg.(value & opt int 1000 & info [ "limit" ] ~doc:"Max rows.") in
  let run fault_profile dir low high limit =
    with_store ?fault_profile dir (fun st ->
        List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) (s_scan st ~limit ~low ~high))
  in
  Cmd.v (Cmd.info "scan" ~doc:"Atomic range query")
    Term.(const run $ fault_arg $ dir_arg $ low $ high $ limit)

let load_cmd =
  let items = Arg.(value & opt int 10_000 & info [ "items" ] ~doc:"Keys to load.") in
  let dist =
    Arg.(
      value
      & opt (enum [ ("zipf", `Zipf); ("composite", `Composite); ("uniform", `Uniform) ]) `Composite
      & info [ "dist" ] ~doc:"Key distribution.")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ]
          ~doc:
            "Create the store range-sharded over N independent shards (uniform split keys \
             over the synthetic key space). Only honored when the directory is fresh; an \
             existing store keeps its partition.")
  in
  let run fault_profile dir items dist shards =
    let d =
      match dist with
      | `Zipf -> Evendb_ycsb.Workload.Zipf_simple 0.99
      | `Composite -> Evendb_ycsb.Workload.Zipf_composite 0.99
      | `Uniform -> Evendb_ycsb.Workload.Uniform
    in
    with_store ?fault_profile ~shards ~writes:true dir (fun st ->
        let sh = Evendb_ycsb.Workload.create_shared ~value_bytes:128 d ~items ~seed:1 in
        let w = Evendb_ycsb.Workload.thread sh ~id:0 in
        let keys = Evendb_ycsb.Workload.load_keys sh in
        List.iter (fun k -> s_put st k (Evendb_ycsb.Workload.make_value w)) keys;
        Printf.printf "loaded %d keys\n" (List.length keys))
  in
  Cmd.v (Cmd.info "load" ~doc:"Bulk-load a synthetic dataset")
    Term.(const run $ fault_arg $ dir_arg $ items $ dist $ shards)

let stat_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Dump the full metrics registry (counters, gauges, op-latency timers, maintenance spans) as JSON.")
  in
  let prometheus =
    Arg.(value & flag & info [ "prometheus" ] ~doc:"Dump the metrics registry in Prometheus text format.")
  in
  let reset_check =
    Arg.(
      value & flag
      & info [ "reset-check" ]
          ~doc:
            "After reporting, reset every resettable metric (registry counters/timers/spans, \
             per-chunk stats, hot-prefix sketch) and verify they all read \
             zero; lists any residue and exits 4 — a regression guard for reset coverage of \
             newly added tables.")
  in
  (* Group-commit activity, aggregated over whichever stores the
     directory holds. Nothing to print on async stores (no committer:
     the counters read zero). *)
  let commit_summary snaps =
    let counter name =
      List.fold_left
        (fun acc snap ->
          List.fold_left
            (fun acc (n, v) ->
              match v with Evendb_obs.Obs.Counter c when n = name -> acc + c | _ -> acc)
            acc snap.Evendb_obs.Obs.metrics)
        0 snaps
    in
    let batches = counter "commit.batches" in
    if batches > 0 then begin
      let members, max_batch =
        List.fold_left
          (fun acc snap ->
            List.fold_left
              (fun (members, max_batch) (n, v) ->
                match v with
                | Evendb_obs.Obs.Timer tm when n = "commit.batch_size" ->
                  ( members
                    + int_of_float (tm.Evendb_obs.Obs.t_mean_ns *. float_of_int tm.Evendb_obs.Obs.t_count),
                    max max_batch tm.Evendb_obs.Obs.t_max_ns )
                | _ -> (members, max_batch))
              acc snap.Evendb_obs.Obs.metrics)
          (0, 0) snaps
      in
      Printf.printf "group commit:        %d batches, %d fsyncs (%d saved), mean batch %.1f, max %d\n"
        batches (counter "commit.fsyncs") (counter "commit.fsyncs_saved")
        (float_of_int members /. float_of_int batches)
        max_batch
    end
  in
  let timer_table snaps =
    (* Op-latency timers, including the true observed extremes (p99 is
       a bucket estimate; max_ns is exact). Batch-size histograms count
       members, not nanoseconds — they render in the group-commit line
       instead. *)
    let timers =
      List.concat_map
        (fun (label, snap) ->
          List.filter_map
            (fun (name, v) ->
              match v with
              | Evendb_obs.Obs.Timer tm
                when tm.Evendb_obs.Obs.t_count > 0 && name <> "commit.batch_size" ->
                Some (label ^ name, tm)
              | _ -> None)
            snap.Evendb_obs.Obs.metrics)
        snaps
    in
    if timers <> [] then begin
      Printf.printf "\n%-24s %10s %10s %10s %10s %10s %10s\n" "timer" "count" "p50_us"
        "p95_us" "p99_us" "min_us" "max_us";
      List.iter
        (fun (name, tm) ->
          let us ns = float_of_int ns /. 1e3 in
          Printf.printf "%-24s %10d %10.1f %10.1f %10.1f %10.1f %10.1f\n" name
            tm.Evendb_obs.Obs.t_count
            (us tm.Evendb_obs.Obs.t_p50_ns)
            (us tm.Evendb_obs.Obs.t_p95_ns)
            (us tm.Evendb_obs.Obs.t_p99_ns)
            (us tm.Evendb_obs.Obs.t_min_ns)
            (us tm.Evendb_obs.Obs.t_max_ns))
        timers
    end
  in
  (* Uptime plus lifetime op counts with derived rates. Counts come
     from the op timers, so they cover exactly what the latency table
     below reports. *)
  let ops_rates ~uptime_ns snaps =
    Printf.printf "uptime:              %.1fs\n" (float_of_int uptime_ns /. 1e9);
    let parts =
      List.filter_map
        (fun (op, c, per_s) ->
          if c > 0 then Some (Printf.sprintf "%s %d (%.1f/s)" op c per_s) else None)
        (Tel.Live.op_rates ~uptime_ns snaps)
    in
    if parts <> [] then Printf.printf "ops:                 %s\n" (String.concat "  " parts)
  in
  (* --url: print the same uptime/rates section from a live store's
     /stat.json (where uptime and counts are the server's, not this
     short-lived CLI process's). *)
  let stat_from_url url =
    let host, port = parse_endpoint url in
    match Tel.Http.get ~host ~port "/stat.json" with
    | exception _ ->
      Printf.eprintf "evendb stat: cannot reach http://%s:%d/stat.json\n" host port;
      exit 1
    | status, _ when status <> 200 ->
      Printf.eprintf "evendb stat: http://%s:%d/stat.json returned %d\n" host port status;
      exit 1
    | _, body ->
      let j = Tel.Tiny_json.parse body in
      (match Option.bind (Tel.Tiny_json.member "uptime_ns" j) Tel.Tiny_json.to_int with
      | Some up -> Printf.printf "uptime:              %.1fs\n" (float_of_int up /. 1e9)
      | None -> ());
      let ops =
        match Option.bind (Tel.Tiny_json.member "ops" j) Tel.Tiny_json.to_obj with
        | Some fields ->
          List.filter_map
            (fun (name, v) ->
              match
                ( Option.bind (Tel.Tiny_json.member "count" v) Tel.Tiny_json.to_int,
                  Option.bind (Tel.Tiny_json.member "per_s" v) Tel.Tiny_json.to_float )
              with
              | Some c, Some r when c > 0 -> Some (Printf.sprintf "%s %d (%.1f/s)" name c r)
              | _ -> None)
            fields
        | None -> []
      in
      if ops <> [] then Printf.printf "ops:                 %s\n" (String.concat "  " ops)
  in
  let reset_check_dbs dbs =
    List.iter Db.reset_metrics dbs;
    match List.concat_map Db.metrics_residue dbs with
    | [] -> prerr_endline "reset check: clean"
    | residue ->
      Printf.eprintf "reset check: %d metrics still non-zero after reset:\n"
        (List.length residue);
      List.iter (Printf.eprintf "  %s\n") residue;
      exit 4
  in
  let run fault_profile dir json prometheus reset_check url =
    match (url, dir) with
    | Some url, _ -> stat_from_url url
    | None, None ->
      prerr_endline "evendb stat: a store DIR or --url is required";
      exit 2
    | None, Some dir ->
    with_store ?fault_profile dir (fun st ->
        (match st with
        | Plain db ->
          if json then print_string (Db.metrics_dump db `Json)
          else if prometheus then print_string (Db.metrics_dump db `Prometheus)
          else begin
            Printf.printf "chunks:              %d\n" (Db.chunk_count db);
            Printf.printf "resident munks:      %d\n" (Db.munk_count db);
            Printf.printf "resident munk bytes: %d of a %d-byte budget\n" (Db.munk_bytes db)
              (Db.munk_budget_bytes db);
            Printf.printf "funk log bytes:      %d\n" (Db.log_space db);
            Printf.printf "current epoch:       %d\n" (Db.current_epoch db);
            (match Db.list_snapshots db with
            | [] -> ()
            | snaps ->
              Printf.printf "snapshots:           %d (%s)\n" (List.length snaps)
                (String.concat ", " (List.map (fun i -> i.Snapshot.id) snaps)));
            let env = Env.disk dir in
            if Env.exists env Layout.follower_file then
              Printf.printf "replication:         follower, applied LSN %d\n"
                (Repl.Follower.load_watermark env)
            else if Db.fenced db then Printf.printf "replication:         fenced (deposed primary)\n";
            let snap = Evendb_obs.Obs.snapshot (Db.obs db) in
            ops_rates ~uptime_ns:(Db.uptime_ns db) [ snap ];
            commit_summary [ snap ];
            timer_table [ ("", snap) ]
          end
        | Sharded s ->
          if json then print_string (Shard.metrics_dump s `Json)
          else if prometheus then print_string (Shard.metrics_dump s `Prometheus)
          else begin
            let n = Shard.shard_count s in
            Printf.printf "shards:              %d\n" n;
            Printf.printf "chunks:              %d\n" (Shard.chunk_count s);
            List.iteri
              (fun i db ->
                Printf.printf
                  "  shard %-2d           %d chunks, %d munks (%d of %d budget bytes), %d log bytes\n" i
                  (Db.chunk_count db) (Db.munk_count db) (Db.munk_bytes db) (Db.munk_budget_bytes db)
                  (Db.log_space db))
              (List.init n (Shard.shard s));
            let snaps =
              List.init n (fun i -> Evendb_obs.Obs.snapshot (Db.obs (Shard.shard s i)))
            in
            ops_rates ~uptime_ns:(Db.uptime_ns (Shard.shard s 0)) snaps;
            commit_summary snaps;
            timer_table
              (List.mapi (fun i snap -> (Printf.sprintf "s%02d/" i, snap)) snaps)
          end);
        if reset_check then
          match st with
          | Plain db -> reset_check_dbs [ db ]
          | Sharded s -> reset_check_dbs (List.init (Shard.shard_count s) (Shard.shard s)))
  in
  let dir_opt = Arg.(value & pos 0 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Store statistics: uptime, op counts with derived ops/s rates, group-commit and \
          latency tables (--json/--prometheus for the metrics registry; --url to query a \
          live store's telemetry endpoint)")
    Term.(const run $ fault_arg $ dir_opt $ json $ prometheus $ reset_check $ url_arg)

(* A quoted JSON string for the hand-laid CLI reports (a user-chosen DIR
   or key may need escaping). *)
let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Evendb_obs.Obs.jstr s b;
  Buffer.contents b

let take n l = List.filteri (fun i _ -> i < n) l

let heat_cmd =
  let items =
    Arg.(value & opt int 20_000 & info [ "items" ] ~doc:"Dataset size loaded before the trace.")
  in
  let ops =
    Arg.(value & opt int 50_000 & info [ "ops" ] ~doc:"Zipfian point reads to drive.")
  in
  let dist =
    Arg.(
      value
      & opt (enum [ ("zipf", `Zipf); ("composite", `Composite) ]) `Zipf
      & info [ "dist" ] ~doc:"Read-key distribution (theta 0.99).")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"Rows in the chunk and prefix tables.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable report.") in
  let run fault_profile dir items ops dist top json =
    let theta = 0.99 in
    let d = match dist with `Zipf -> W.Zipf_simple theta | `Composite -> W.Zipf_composite theta in
    (* A big sketch keeps the aggregate Space-Saving overestimate well
       under the report's accuracy target. *)
    let config = { Evendb_core.Config.default with topk_capacity = 4096 } in
    with_db ?fault_profile ~config dir (fun db ->
        let sh = W.create_shared ~value_bytes:128 d ~items ~seed:1 in
        let w = W.thread sh ~id:0 in
        List.iter (fun k -> Db.put db k (W.make_value w)) (W.load_keys sh);
        Db.maintain db;
        (* The load phase's put telemetry would dilute the read trace. *)
        Db.reset_metrics db;
        for _ = 1 to ops do
          ignore (Db.get db (W.sample_key w))
        done;
        let prefix_len = Db.hot_prefix_len in
        let expected = W.prefix_weights sh ~prefix_len in
        let distinct = List.length expected in
        let n1 = max 1 (distinct / 100) in
        let expected_share =
          List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (take n1 expected)
        in
        let entries, total = Db.hot_prefixes db in
        let observed_share =
          if total = 0 then 0.0
          else
            List.fold_left (fun acc (_, _, hi) -> acc +. float_of_int hi) 0.0 (take n1 entries)
            /. float_of_int total
        in
        let cstats = Db.chunk_stats db in
        let by_heat =
          List.sort
            (fun a b -> compare b.Db.cs_stat.Chunk.st_heat a.Db.cs_stat.Chunk.st_heat)
            cstats
        in
        let resident = List.length (List.filter (fun c -> c.Db.cs_munk_resident) cstats) in
        (* Agreement: does the munk cache hold the chunks the heat score
           ranks hottest? 1.0 = the top-[resident] by heat are exactly
           the resident set. *)
        let m = min resident (List.length by_heat) in
        let agreement =
          if m = 0 then 1.0
          else
            float_of_int
              (List.length (List.filter (fun c -> c.Db.cs_munk_resident) (take m by_heat)))
            /. float_of_int m
        in
        if json then begin
          let buf = Buffer.create 4096 in
          Buffer.add_string buf "{\n";
          Buffer.add_string buf (Printf.sprintf "  \"dist\": %s,\n" (jstr (W.dist_name d)));
          Buffer.add_string buf (Printf.sprintf "  \"theta\": %.2f,\n" theta);
          Buffer.add_string buf (Printf.sprintf "  \"items\": %d,\n" items);
          Buffer.add_string buf (Printf.sprintf "  \"ops\": %d,\n" ops);
          Buffer.add_string buf (Printf.sprintf "  \"prefix_len\": %d,\n" prefix_len);
          Buffer.add_string buf (Printf.sprintf "  \"distinct_prefixes\": %d,\n" distinct);
          Buffer.add_string buf (Printf.sprintf "  \"top1pct_prefixes\": %d,\n" n1);
          Buffer.add_string buf
            (Printf.sprintf "  \"observed_top1pct_share\": %.6f,\n" observed_share);
          Buffer.add_string buf
            (Printf.sprintf "  \"expected_top1pct_share\": %.6f,\n" expected_share);
          Buffer.add_string buf (Printf.sprintf "  \"sketch_total\": %d,\n" total);
          Buffer.add_string buf (Printf.sprintf "  \"chunks\": %d,\n" (List.length cstats));
          Buffer.add_string buf (Printf.sprintf "  \"resident_munks\": %d,\n" resident);
          Buffer.add_string buf
            (Printf.sprintf "  \"resident_munk_bytes\": %d,\n" (Db.munk_bytes db));
          Buffer.add_string buf
            (Printf.sprintf "  \"munk_budget_bytes\": %d,\n" (Db.munk_budget_bytes db));
          Buffer.add_string buf
            (Printf.sprintf "  \"max_chunk_bytes\": %d,\n" (Db.config db).max_chunk_bytes);
          Buffer.add_string buf
            (Printf.sprintf "  \"munk_residency_agreement\": %.6f,\n" agreement);
          Buffer.add_string buf "  \"hot_prefixes\": [";
          List.iteri
            (fun i (p, lo, hi) ->
              if i > 0 then Buffer.add_string buf ",";
              Buffer.add_string buf
                (Printf.sprintf "\n    {\"prefix\": %s, \"count_lo\": %d, \"count_hi\": %d}"
                   (jstr p) lo hi))
            (take top entries);
          Buffer.add_string buf "\n  ],\n  \"hot_chunks\": [";
          List.iteri
            (fun i c ->
              if i > 0 then Buffer.add_string buf ",";
              let s = c.Db.cs_stat in
              Buffer.add_string buf
                (Printf.sprintf
                   "\n    {\"id\": %d, \"min_key\": %s, \"munk\": %b, \"heat\": %d, \
                    \"gets\": %d, \"puts\": %d, \"scans\": %d, \"munk_hits\": %d, \
                    \"row_hits\": %d, \"funk_reads\": %d, \"rebalances\": %d, \"splits\": %d}"
                   c.Db.cs_id (jstr c.Db.cs_min_key) c.Db.cs_munk_resident
                   s.Chunk.st_heat s.Chunk.st_gets s.Chunk.st_puts s.Chunk.st_scans
                   s.Chunk.st_munk_hits s.Chunk.st_row_hits s.Chunk.st_funk_reads
                   s.Chunk.st_rebalances s.Chunk.st_splits))
            (take top by_heat);
          Buffer.add_string buf "\n  ]\n}\n";
          print_string (Buffer.contents buf)
        end
        else begin
          Printf.printf "%s trace: %d reads over %d items (theta %.2f)\n" (W.dist_name d) ops
            items theta;
          Printf.printf "top 1%% of %d prefixes: %.1f%% of accesses (expected %.1f%%)\n"
            distinct (100.0 *. observed_share) (100.0 *. expected_share);
          Printf.printf "munk-residency agreement: %.0f%% (%d resident munks, %d chunks)\n\n"
            (100.0 *. agreement) resident (List.length cstats);
          Printf.printf "%-10s %-6s %10s %8s %8s %9s %9s %10s\n" "prefix" "" "count" "chunk"
            "heat" "gets" "puts" "cache-hit%";
          let chunk_rows = take top by_heat in
          let prefix_rows = take top entries in
          let rows = max (List.length chunk_rows) (List.length prefix_rows) in
          for i = 0 to rows - 1 do
            (match List.nth_opt prefix_rows i with
            | Some (p, _, hi) -> Printf.printf "%-10s %-6s %10d " p "" hi
            | None -> Printf.printf "%-10s %-6s %10s " "" "" "");
            match List.nth_opt chunk_rows i with
            | Some c ->
              let s = c.Db.cs_stat in
              let hitpct =
                if s.Chunk.st_gets = 0 then 0.0
                else
                  100.0
                  *. float_of_int (s.Chunk.st_munk_hits + s.Chunk.st_row_hits)
                  /. float_of_int s.Chunk.st_gets
              in
              Printf.printf "%7d%s %8d %9d %9d %9.1f\n" c.Db.cs_id
                (if c.Db.cs_munk_resident then "*" else " ")
                s.Chunk.st_heat s.Chunk.st_gets s.Chunk.st_puts hitpct
            | None -> print_newline ()
          done;
          Printf.printf "(* = munk resident)\n"
        end)
  in
  Cmd.v
    (Cmd.info "heat"
       ~doc:
         "Drive a skewed read trace and report the spatial-locality telemetry: per-chunk heat \
          map, hot-prefix sketch, and the observed vs analytically-expected access share of \
          the top 1% of key prefixes.")
    Term.(const run $ fault_arg $ dir_arg $ items $ ops $ dist $ top $ json)

let trace_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace-event JSON here (load in chrome://tracing or Perfetto).")
  in
  let ops =
    Arg.(
      value & opt int 2_000
      & info [ "ops" ]
          ~doc:
            "Synthetic put/get ops to drive first so the span ring holds maintenance activity \
             (0 = dump only what opening produced, e.g. recovery).")
  in
  let run fault_profile dir out ops =
    with_db ?fault_profile dir (fun db ->
        if ops > 0 then begin
          let sh =
            W.create_shared ~value_bytes:128 (W.Zipf_composite 0.99) ~items:(max 64 (ops / 2))
              ~seed:1
          in
          let w = W.thread sh ~id:0 in
          for i = 1 to ops do
            if i land 1 = 0 then ignore (Db.get db (W.sample_key w))
            else Db.put db (W.sample_key w) (W.make_value w)
          done;
          Db.maintain db
        end;
        let json = Db.dump_trace db in
        let oc = open_out out in
        output_string oc json;
        close_out oc;
        Printf.eprintf "wrote %d bytes of trace JSON to %s\n" (String.length json) out)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Export the maintenance span ring (rebalances, splits, flushes, checkpoints...) as \
          Chrome trace-event JSON, optionally driving a synthetic workload first.")
    Term.(const run $ fault_arg $ dir_arg $ out $ ops)

let slow_cmd =
  let module Attr = Evendb_obs.Attr in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the slow-op log as JSONL (one object per op: kind, wall/duration ns, \
             per-cause breakdown, overlapping maintenance spans) instead of the table.")
  in
  let ops =
    Arg.(
      value & opt int 2_000
      & info [ "ops" ]
          ~doc:
            "Synthetic put/get ops to drive first so the slow-op ring holds attributed tail \
             operations (0 = report only what opening, e.g. recovery, produced).")
  in
  let threshold_us =
    Arg.(
      value & opt int 1_000
      & info [ "threshold-us" ] ~docv:"US"
          ~doc:
            "Slow-op threshold in microseconds; the ring is re-armed at this threshold \
             before any synthetic ops run.")
  in
  let run fault_profile dir out json ops threshold_us =
    with_db ?fault_profile dir (fun db ->
        let attr = Db.attr db in
        Attr.set_threshold_ns attr (max 1 (threshold_us * 1_000));
        if ops > 0 then begin
          let sh =
            W.create_shared ~value_bytes:128 (W.Zipf_composite 0.99) ~items:(max 64 (ops / 2))
              ~seed:1
          in
          let w = W.thread sh ~id:0 in
          for i = 1 to ops do
            if i land 1 = 0 then ignore (Db.get db (W.sample_key w))
            else Db.put db (W.sample_key w) (W.make_value w)
          done
        end;
        let emit s =
          match out with
          | None -> print_string s
          | Some file ->
            let oc = open_out file in
            output_string oc s;
            close_out oc;
            Printf.eprintf "wrote %d bytes to %s\n" (String.length s) file
        in
        if json then emit (Attr.slow_ops_jsonl attr)
        else begin
          let slows = Attr.slow_ops attr in
          let b = Buffer.create 4096 in
          let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
          bpf "slow ops (> %d us): %d seen, %d retained\n" threshold_us (Attr.slow_seen attr)
            (List.length slows);
          if slows <> [] then
            bpf "%-8s %12s %6s %-16s %s\n" "kind" "dur_us" "attr%" "top cause" "breakdown (us)";
          List.iter
            (fun (s : Attr.slow_op) ->
              let attributed = List.fold_left (fun a (_, ns) -> a + ns) 0 s.Attr.so_causes in
              let top =
                match
                  List.sort (fun (_, a) (_, b) -> compare b a) s.Attr.so_causes
                with
                | (name, _) :: _ -> name
                | [] -> "-"
              in
              bpf "%-8s %12.1f %5.0f%% %-16s %s\n" s.Attr.so_kind
                (float_of_int s.Attr.so_dur_ns /. 1e3)
                (if s.Attr.so_dur_ns > 0 then
                   100.0 *. float_of_int attributed /. float_of_int s.Attr.so_dur_ns
                 else 0.0)
                top
                (String.concat " "
                   (List.map
                      (fun (c, ns) -> Printf.sprintf "%s=%.1f" c (float_of_int ns /. 1e3))
                      s.Attr.so_causes)))
            slows;
          emit (Buffer.contents b)
        end)
  in
  Cmd.v
    (Cmd.info "slow"
       ~doc:
         "Report the slow-op ring: every operation over the threshold with its wall time \
          decomposed into named stall causes (lock wait, log append, fsync, disk read, \
          rebalance, compaction) and the maintenance spans it overlapped. --json emits the \
          raw JSONL event log.")
    Term.(const run $ fault_arg $ dir_arg $ out $ json $ ops $ threshold_us)

let checkpoint_cmd =
  let run fault_profile dir = with_store ?fault_profile dir s_checkpoint in
  Cmd.v (Cmd.info "checkpoint" ~doc:"Force a durability checkpoint")
    Term.(const run $ fault_arg $ dir_arg)

let fsck_cmd =
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Fix what can be fixed. Untrusted files are quarantined under quarantine/ (never \
             deleted) before rebuilding from checksummed fragments; acked-and-synced data \
             survives.")
  in
  let run dir repair =
    (* Deliberately does not open the store: fsck must work on exactly
       the state a crashed or corrupted store cannot recover from. *)
    let env = Env.disk dir in
    let report = if repair then Evendb_check.Scrub.repair env else Evendb_check.Scrub.scrub env in
    Format.printf "%a" Evendb_check.Scrub.pp_report report;
    if not (Evendb_check.Scrub.is_clean report) then exit 2
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify on-disk integrity: every checksum (SSTable blocks, log records, metadata \
          payloads) and the manifest's cross-file references. Exits 2 if errors remain.")
    Term.(const run $ dir_arg $ repair)

let snapshot_cmd =
  let id_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"ID" ~doc:"Snapshot identifier.")
  in
  let drop =
    Arg.(value & flag & info [ "drop" ] ~doc:"Drop snapshot $(i,ID) instead of creating it.")
  in
  let run fault_profile dir id drop =
    with_db ?fault_profile dir (fun db ->
        match (id, drop) with
        | None, true ->
          prerr_endline "evendb: --drop needs a snapshot ID";
          exit 2
        | None, false ->
          List.iter
            (fun (i : Snapshot.info) ->
              Printf.printf "%s\tversion %d\t%d funks\n" i.Snapshot.id i.Snapshot.version
                (List.length i.Snapshot.funks))
            (Db.list_snapshots db)
        | Some id, true ->
          Db.drop_snapshot db ~id;
          Printf.printf "dropped snapshot %s\n" id
        | Some id, false ->
          let info = Db.snapshot db ~id in
          Printf.printf "published snapshot %s at version %d (%d funks)\n" info.Snapshot.id
            info.Snapshot.version
            (List.length info.Snapshot.funks))
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Publish a point-in-time read-only snapshot under snapshots/ID/ (crash-safe: a \
          snapshot exists only once its COMPLETE marker is published; half-published \
          snapshots are swept at recovery). Without ID, list the published snapshots.")
    Term.(const run $ fault_arg $ dir_arg $ id_arg $ drop)

let backup_cmd =
  let dest_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"DEST") in
  let snap_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"ID"
          ~doc:
            "Ship snapshot $(docv) (published if it does not exist yet). Default: publish a \
             fresh auto-named snapshot at the current cut.")
  in
  let base_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "base" ] ~docv:"ID"
          ~doc:
            "Incremental: ship only funks changed since base snapshot $(docv) (SSTables of \
             shared funks are carried by reference; their logs ship only the grown suffix). \
             The base must be the snapshot of the previous archive in the chain.")
  in
  let run fault_profile dir dest snap base =
    with_db ?fault_profile dir (fun db ->
        let snapshot_id =
          match snap with
          | Some id when Snapshot.exists (Db.env db) ~id -> id
          | Some id -> (Db.snapshot db ~id).Snapshot.id
          | None ->
            let rec fresh n =
              let id = Printf.sprintf "auto-%04d" n in
              if Snapshot.exists (Db.env db) ~id then fresh (n + 1) else id
            in
            (Db.snapshot db ~id:(fresh 0)).Snapshot.id
        in
        let name, stats =
          Backup.ship ~obs:(Db.obs db) ~src:(Db.env db) ~dest:(Env.disk dest) ~snapshot_id
            ?base_id:base ()
        in
        Printf.printf "shipped snapshot %s to %s/%s: %d funks, %d bytes%s\n" snapshot_id dest
          name stats.Backup.funks_shipped stats.Backup.bytes_shipped
          (match base with Some b -> Printf.sprintf " (incremental over %s)" b | None -> ""))
  in
  Cmd.v
    (Cmd.info "backup"
       ~doc:
         "Ship a snapshot into a self-describing CRC-trailered archive in DEST \
          (backup_<seq>.evbk). With --base, only what changed since the base snapshot is \
          shipped. Interrupted ships leave only a *.tmp behind.")
    Term.(const run $ fault_arg $ dir_arg $ dest_arg $ snap_arg $ base_arg)

let restore_cmd =
  let src_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SRC") in
  let dst_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"DST") in
  let run src dst =
    run_guarded
      ~report:(fun () -> ())
      (fun () ->
        match Backup.restore ~src:(Env.disk src) ~dest:(Env.disk dst) with
        | () -> Printf.printf "restored %s from the archive chain in %s\n" dst src
        | exception Invalid_argument msg ->
          Printf.eprintf "evendb: %s\n" msg;
          exit 2)
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Rebuild a store from the backup archive chain in SRC (one full plus any \
          incrementals) into the empty directory DST. The result opens normally and passes \
          fsck; a damaged archive or broken chain is rejected whole.")
    Term.(const run $ src_arg $ dst_arg)

let fence_cmd =
  let run fault_profile dir =
    with_db ?fault_profile dir (fun db ->
        Db.fence db;
        Printf.printf "fenced %s: all writes now fail until promotion copies its state\n" dir)
  in
  Cmd.v
    (Cmd.info "fence"
       ~doc:
         "Fence a (deposed) primary: publish the durable FENCED marker, after which every \
          write raises and the CLI exits 5. Reads stay available. Part of the failover \
          runbook — fence the old primary before promoting its replica.")
    Term.(const run $ fault_arg $ dir_arg)

let promote_cmd =
  let from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"PRIMARY_DIR"
          ~doc:
            "The deposed primary's store. When reachable it is fenced and its recovered \
             durable state is applied onto the replica before promotion, so nothing acked is \
             lost. Omit when the primary's disk is gone; the replica then serves its last \
             applied state.")
  in
  let run dir from =
    run_guarded
      ~report:(fun () -> ())
      (fun () ->
        let renv = Env.disk dir in
        if not (Env.exists renv Layout.follower_file) then begin
          Printf.eprintf "evendb: %s is not a replication follower\n" dir;
          exit 2
        end;
        let f = Repl.Follower.open_ renv in
        let applied = Repl.Follower.applied_lsn f in
        let primary = Option.map (fun d -> Db.open_ (Env.disk d)) from in
        let db = Repl.promote ?primary f in
        Printf.printf "promoted %s (watermark was LSN %d%s)\n" dir applied
          (match from with
          | Some d -> Printf.sprintf "; fenced and drained %s" d
          | None -> "; old primary unreachable — serving last applied state");
        Db.close db;
        Option.iter Db.close primary)
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote a replication follower to primary: fence the old primary (--from), top the \
          replica up from its recovered durable state, drop the FOLLOWER marker and \
          watermark, and checkpoint. The store then accepts direct writes.")
    Term.(const run $ dir_arg $ from_arg)

(* Telemetry for a CLI-opened store: 1 Hz sampling, stopped before the
   store closes. *)
let with_live db f =
  let live =
    Tel.Live.start ~interval_ns:1_000_000_000 ~env:(Db.env db) ~obs:(Db.obs db) ~attr:(Db.attr db)
      ~extra:(fun () -> Db.sampler_gauges db)
      ()
  in
  Fun.protect ~finally:(fun () -> Tel.Live.stop live) (fun () -> f live)

let serve_telemetry_cmd =
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to bind (default 0 = ephemeral; the bound port is printed).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")
  in
  let duration_arg =
    Arg.(
      value & opt float 0.
      & info [ "duration-s" ] ~docv:"S"
          ~doc:"Serve for S seconds, then close the store and exit (default 0 = until killed).")
  in
  let drive_arg =
    Arg.(
      value & opt int 0
      & info [ "drive" ] ~docv:"OPS_PER_S"
          ~doc:
            "Apply a paced synthetic load (~70% gets, 30% puts over the loaded key space) \
             while serving, so the endpoint and evendb top have live traffic to show.")
  in
  let run fault_profile dir port host duration_s drive =
    with_db ?fault_profile dir @@ fun db ->
    with_live db (fun live ->
        let port = Tel.Live.serve ~host ~port live in
        Printf.printf "serving telemetry on http://%s:%d/\n" host port;
        print_string "endpoints: /metrics /stat.json /series?last=N /trace /slow\n";
        flush stdout;
        let deadline =
          if duration_s > 0. then Some (Unix.gettimeofday () +. duration_s) else None
        in
        let continue () =
          match deadline with None -> true | Some d -> Unix.gettimeofday () < d
        in
        if drive > 0 then begin
          let state = ref 123456789 in
          let next () =
            state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
            !state
          in
          let value = String.make 64 'v' in
          (* Pace in 50ms batches so the load tracks OPS_PER_S without
             a clock read per op. *)
          let batch = max 1 (drive / 20) in
          while continue () do
            let t0 = Unix.gettimeofday () in
            for _ = 1 to batch do
              let k = Evendb_ycsb.Keys.encode (next () mod 100_000) in
              if next () mod 10 < 3 then Db.put db k value else ignore (Db.get db k)
            done;
            let budget = float_of_int batch /. float_of_int drive in
            let elapsed = Unix.gettimeofday () -. t0 in
            if budget > elapsed then Unix.sleepf (budget -. elapsed)
          done
        end
        else while continue () do Unix.sleepf 0.2 done)
  in
  Cmd.v
    (Cmd.info "serve-telemetry"
       ~doc:
         "Open the store and serve its continuous telemetry over loopback HTTP: the windowed \
          sampler starts (journaling under telemetry/ in the store directory) and /metrics, \
          /stat.json, /series, /trace and /slow become scrapeable until the process exits.")
    Term.(const run $ fault_arg $ dir_arg $ port_arg $ host_arg $ duration_arg $ drive_arg)

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval-s" ] ~docv:"S" ~doc:"Refresh interval between frames (default 2).")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Render N frames then exit (default 0 = run until interrupted).")
  in
  let no_clear_arg =
    Arg.(
      value & flag
      & info [ "no-clear" ]
          ~doc:"Append frames instead of clearing the screen (for logs and CI).")
  in
  let run fault_profile dir url interval_s iterations no_clear =
    let render samples =
      if not no_clear then print_string Tel.Top.clear_screen;
      print_string (Tel.Top.render samples);
      flush stdout
    in
    let frames = if iterations > 0 then iterations else max_int in
    match url with
    | Some url ->
      let host, port = parse_endpoint url in
      for i = 1 to frames do
        (match Tel.Http.get ~host ~port "/series?last=8" with
        | 200, body -> render (Tel.Sampler.samples_of_json body)
        | status, _ ->
          Printf.eprintf "evendb top: /series returned HTTP %d\n" status;
          exit 1
        | exception _ ->
          Printf.eprintf "evendb top: cannot reach http://%s:%d/series\n" host port;
          exit 1);
        if i < frames then Unix.sleepf interval_s
      done
    | None -> (
      match dir with
      | None ->
        prerr_endline "evendb top: a store DIR or --url URL is required";
        exit 2
      | Some dir ->
        with_db ?fault_profile dir @@ fun db ->
        with_live db (fun live ->
            for _ = 1 to frames do
              Unix.sleepf interval_s;
              render (Tel.Sampler.samples ~last:8 (Tel.Live.sampler live))
            done))
  in
  let dir_opt = Arg.(value & pos 0 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a store: ops/s and windowed p50/p95/p99 per op kind, top \
          stall causes, cache hit rates, hottest key prefixes, replication lag. Reads a \
          live endpoint with --url, or opens DIR and samples in-process.")
    Term.(
      const run $ fault_arg $ dir_opt $ url_arg $ interval_arg $ iterations_arg $ no_clear_arg)

let () =
  let doc = "EvenDB: a key-value store optimized for spatial locality" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "evendb" ~doc)
          [
            put_cmd;
            get_cmd;
            del_cmd;
            scan_cmd;
            load_cmd;
            stat_cmd;
            serve_telemetry_cmd;
            top_cmd;
            heat_cmd;
            trace_cmd;
            slow_cmd;
            checkpoint_cmd;
            fsck_cmd;
            snapshot_cmd;
            backup_cmd;
            restore_cmd;
            fence_cmd;
            promote_cmd;
          ]))
