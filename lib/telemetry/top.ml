let clear_screen = "\027[H\027[2J"

let g name s = List.assoc_opt name s.Sampler.s_gauges
let d name s = match List.assoc_opt name s.Sampler.s_deltas with Some v -> v | None -> 0

let fmt_ns ns =
  if ns >= 1_000_000_000 then Printf.sprintf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%dns" ns

let fmt_bytes n =
  if n >= 1 lsl 30 then Printf.sprintf "%.1fGiB" (float_of_int n /. float_of_int (1 lsl 30))
  else if n >= 1 lsl 20 then Printf.sprintf "%.1fMiB" (float_of_int n /. float_of_int (1 lsl 20))
  else if n >= 1 lsl 10 then Printf.sprintf "%.1fKiB" (float_of_int n /. float_of_int (1 lsl 10))
  else Printf.sprintf "%dB" n

let fmt_count n =
  if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.1fk" (float_of_int n /. 1e3)
  else string_of_int n

(* Cache hit/miss and attr.total_ns.* probes export lifetime totals, so
   their windowed value is the change between the two newest samples. *)
let gauge_delta name cur prev =
  match (g name cur, g name prev) with Some v1, Some v0 -> Some (v1 - v0) | _ -> None

let hit_rate cur prev ~hits ~misses =
  match (gauge_delta hits cur prev, gauge_delta misses cur prev) with
  | Some dh, Some dm when dh + dm > 0 ->
    Some (float_of_int dh /. float_of_int (dh + dm), dh + dm)
  | _ -> None

let op_kinds = [ "db.put"; "db.get"; "db.delete"; "db.scan" ]
let attr_prefix = "attr.total_ns."
let hot_prefix = "hot."

let strip_prefix p s = String.sub s (String.length p) (String.length s - String.length p)

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Each cause's share of the window's op time: the attr.total_ns.<cause>
   growth over Σ count × mean of the op timers Attr.with_op records
   into. The window mean is exact (a sum difference), so the
   denominator is the ops' true wall time. Descending, top 5. *)
let stall_shares cur prev =
  let op_ns =
    List.fold_left
      (fun acc (name, w) ->
        if List.mem name op_kinds then
          acc +. (float_of_int w.Sampler.w_count *. w.Sampler.w_mean_ns)
        else acc)
      0. cur.Sampler.s_timers
  in
  if op_ns <= 0. then []
  else
    cur.Sampler.s_gauges
    |> List.filter_map (fun (name, _) ->
           if starts_with attr_prefix name then
             match gauge_delta name cur prev with
             | Some dns when dns > 0 ->
               Some (strip_prefix attr_prefix name, float_of_int dns /. op_ns)
             | _ -> None
           else None)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < 5)

let render samples =
  match List.rev samples with
  | [] -> "evendb top — no samples yet (waiting for the first tick)\n"
  | cur :: rest ->
    let prev = match rest with p :: _ -> Some p | [] -> None in
    let b = Buffer.create 2048 in
    let window_s = float_of_int cur.Sampler.s_dur_ns /. 1e9 in
    let uptime =
      match g "db.uptime_ns" cur with
      | Some ns -> Printf.sprintf "  uptime %s" (fmt_ns ns)
      | None -> ""
    in
    Printf.bprintf b "evendb top — sample #%d  window %.1fs%s\n\n" cur.Sampler.s_seq
      window_s uptime;
    (* Ops: one line per op-kind timer active in the window. *)
    let op_timers =
      List.filter
        (fun (name, _) ->
          List.mem name op_kinds
          || List.exists
               (fun k -> starts_with "shard" name && Filename.check_suffix name k)
               op_kinds)
        cur.Sampler.s_timers
    in
    Buffer.add_string b "  OPS                ops/s     p50       p95       p99       max\n";
    if op_timers = [] then Buffer.add_string b "  (no ops in window)\n"
    else
      List.iter
        (fun (name, w) ->
          let rate =
            if window_s > 0. then float_of_int w.Sampler.w_count /. window_s else 0.
          in
          Printf.bprintf b "  %-18s %-9s %-9s %-9s %-9s %s\n" name
            (Printf.sprintf "%.0f" rate)
            (fmt_ns w.Sampler.w_p50_ns) (fmt_ns w.Sampler.w_p95_ns)
            (fmt_ns w.Sampler.w_p99_ns) (fmt_ns w.Sampler.w_max_ns))
        op_timers;
    let stalls = match prev with Some p -> stall_shares cur p | None -> [] in
    if stalls <> [] then begin
      Buffer.add_string b "\n  STALL CAUSES (share of op time, this window)\n";
      List.iter
        (fun (cause, share) -> Printf.bprintf b "  %-22s %5.1f%%\n" cause (100. *. share))
        stalls
    end;
    (* Caches. *)
    let cache_lines =
      List.filter_map
        (fun (label, hits, misses) ->
          match Option.bind prev (hit_rate cur ~hits ~misses) with
          | Some (r, lookups) ->
            Some
              (Printf.sprintf "  %-12s %5.1f%% hit  (%s lookups)\n" label (100. *. r)
                 (fmt_count lookups))
          | None -> None)
        [
          ("row cache", "cache.row.hits", "cache.row.misses");
          ("munk LFU", "cache.lfu.hits", "cache.lfu.misses");
          ("block cache", "blockcache.hits", "blockcache.misses");
        ]
    in
    if cache_lines <> [] then begin
      Buffer.add_string b "\n  CACHES (this window)\n";
      List.iter (Buffer.add_string b) cache_lines
    end;
    (* Hot prefixes: hot.<prefix> gauges are window-independent sketch
       counts; show the top ones. *)
    let hot =
      cur.Sampler.s_gauges
      |> List.filter_map (fun (name, v) ->
             if starts_with hot_prefix name then Some (strip_prefix hot_prefix name, v)
             else None)
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.filteri (fun i _ -> i < 8)
    in
    if hot <> [] then begin
      Buffer.add_string b "\n  HOT PREFIXES (lifetime sketch)\n";
      List.iter
        (fun (p, v) -> Printf.bprintf b "  %-18s %s ops\n" p (fmt_count v))
        hot
    end;
    (* Replication, when the repl gauges exist. *)
    (match (g "repl.lag_records" cur, g "repl.applied_lsn" cur) with
    | None, None -> ()
    | lag, applied ->
      Buffer.add_string b "\n  REPLICATION\n";
      (match lag with
      | Some l -> Printf.bprintf b "  lag %d records  (+%d shipped this window)\n" l
          (d "repl.records_shipped" cur)
      | None -> ());
      (match applied with
      | Some a -> Printf.bprintf b "  follower applied_lsn %d\n" a
      | None -> ()));
    (* Store shape. *)
    (match (g "db.chunks" cur, g "db.munks" cur, g "db.log_bytes" cur) with
    | Some chunks, Some munks, Some log_bytes ->
      Printf.bprintf b "\n  STORE  %d chunks  %d munks  logs %s" chunks munks
        (fmt_bytes log_bytes);
      (match g "blockcache.bytes" cur with
      | Some bytes -> Printf.bprintf b "  blockcache %s" (fmt_bytes bytes)
      | None -> ());
      Buffer.add_char b '\n'
    | _ -> ());
    Buffer.contents b
