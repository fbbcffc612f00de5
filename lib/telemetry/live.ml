open Evendb_obs

(* ~8.5 minutes of history at the 1 Hz the CLI samples at. *)
let ring = 512

(* 4 x 256 KiB: roughly 17 h of 1 Hz samples retained on disk. *)
let journal_segment_bytes = 256 * 1024
let journal_segments = 4

type t = {
  obs : Obs.t;
  attr : Attr.t;
  sampler : Sampler.t;
  journal : Journal.t;
  started_ns : int;
  http_mutex : Mutex.t; (* guards [http]; leaf lock *)
  mutable http : Http.t option;
}

let start ~interval_ns ~env ~obs ~attr ~extra () =
  let journal =
    Journal.create env ~segment_bytes:journal_segment_bytes ~max_segments:journal_segments
  in
  let sampler = Sampler.create ~ring ~journal ~extra ~sources:[ ("", obs) ] () in
  Sampler.start sampler ~interval_ns;
  {
    obs;
    attr;
    sampler;
    journal;
    started_ns = Obs.now_ns ();
    http_mutex = Mutex.create ();
    http = None;
  }

let sampler t = t.sampler

let op_rates ~uptime_ns snaps =
  let up_s = float_of_int uptime_ns /. 1e9 in
  let count name =
    List.fold_left
      (fun acc (s : Obs.snapshot) ->
        List.fold_left
          (fun acc (n, v) ->
            match v with Obs.Timer tm when n = name -> acc + tm.Obs.t_count | _ -> acc)
          acc s.Obs.metrics)
      0 snaps
  in
  List.map
    (fun op ->
      let c = count ("db." ^ op) in
      (op, c, if up_s > 0. then float_of_int c /. up_s else 0.))
    [ "put"; "get"; "delete"; "scan" ]

let stat_json t =
  let b = Buffer.create 4096 in
  let up = Obs.now_ns () - t.started_ns in
  Printf.bprintf b "{\"uptime_ns\":%d,\"ops\":{" up;
  List.iteri
    (fun i (op, count, per_s) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":{\"count\":%d,\"per_s\":%.2f}" op count per_s)
    (op_rates ~uptime_ns:up [ Obs.snapshot t.obs ]);
  Buffer.add_string b "},\"metrics\":";
  Buffer.add_string b (Obs.to_json t.obs);
  Buffer.add_string b ",\"attr\":";
  Buffer.add_string b (Attr.to_json t.attr);
  Buffer.add_char b '}';
  Buffer.contents b

let index =
  "evendb telemetry\n\
   /metrics    Prometheus text exposition\n\
   /stat.json  uptime, op rates, full metrics + attribution JSON\n\
   /series     windowed samples (ring), ?last=N for the newest N\n\
   /trace      Chrome trace-event JSON (chrome://tracing, Perfetto)\n\
   /slow       slow-op ring as JSONL\n"

let handler t ~path ~query =
  match path with
  | "/" | "/index" -> Some (Http.text index)
  | "/metrics" -> Some (Http.text (Obs.to_prometheus t.obs))
  | "/stat.json" -> Some (Http.json (stat_json t))
  | "/series" ->
    let last = Option.bind (List.assoc_opt "last" query) int_of_string_opt in
    Some (Http.json (Sampler.to_json ?last t.sampler))
  | "/trace" ->
    Some (Http.json (Obs.to_chrome_trace ~extra:(Attr.chrome_events t.attr) t.obs))
  | "/slow" -> Some (Http.text (Attr.slow_ops_jsonl t.attr))
  | _ -> None

let serve ?host ?(port = 0) t =
  Mutex.protect t.http_mutex (fun () ->
      match t.http with
      | Some h -> Http.port h
      | None ->
        let h = Http.start ?host ~port (handler t) in
        t.http <- Some h;
        Http.port h)

let stop t =
  let http =
    Mutex.protect t.http_mutex (fun () ->
        let h = t.http in
        t.http <- None;
        h)
  in
  Option.iter Http.stop http;
  Sampler.stop t.sampler;
  Journal.close t.journal
