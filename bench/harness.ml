(* Shared sizing and engine construction for all experiments.

   The paper runs 16 GB of RAM against 4–256 GB datasets; we preserve
   the ratios at laptop scale: a "RAM budget" for EvenDB's munk cache
   and dataset sizes from well-below to well-above it. [scale]
   multiplies both dataset sizes and op counts. *)

open Evendb_storage
open Evendb_ycsb

type t = {
  scale : int;
  threads : int;
  value_bytes : int;
  ram_budget : int; (* bytes of munk cache *)
  ops : int; (* measured ops per run *)
  on_disk : bool;
  fault_profile : (int * float) option;
      (* (seed, rate): inject storage faults into every environment the
         harness creates. Each engine gets a fresh plan from the same
         seed, so runs stay comparable; injected counts appear in the
         per-phase metrics dumps as "faults.injected". *)
  attr_on : bool;
      (* per-op cause attribution in every engine the harness builds;
         --attr off measures its own overhead (exp_attr_ab). *)
}

let mib = 1024 * 1024

let default =
  {
    scale = 1;
    threads = 2;
    value_bytes = 800;
    ram_budget = 4 * mib;
    ops = 20_000;
    on_disk = false;
    fault_profile = None;
    attr_on = true;
  }

let config_factor = 64 (* shrink paper thresholds 10MB chunks -> 160KB etc. *)

let chunk_bytes = Evendb_core.Config.(scaled ~factor:config_factor ()).max_chunk_bytes

let evendb_config h =
  let base = Evendb_core.Config.scaled ~factor:config_factor () in
  {
    base with
    munk_cache_capacity = max 2 (h.ram_budget / chunk_bytes);
    (* Paper: 8GB munks + 4GB row cache; keep the 2:1 ratio. *)
    row_cache_capacity_per_table =
      max 64 (h.ram_budget / 2 / 3 / (h.value_bytes + 14));
    attr_enabled = h.attr_on;
  }

let lsm_config h =
  { (Evendb_lsm.Lsm.Config.scaled ~factor:config_factor ()) with attr_enabled = h.attr_on }

let flsm_config h =
  { (Evendb_flsm.Flsm.Config.scaled ~factor:config_factor ()) with attr_enabled = h.attr_on }

let bench_dir = Filename.concat (Filename.get_temp_dir_name ()) "evendb_bench"

(* ------------------------------------------------------------------ *)
(* Metrics artifacts: every experiment run leaves per-phase JSON
   snapshots of the engine's Evendb_obs registry under
   <bench_dir>/metrics/<experiment>_<engine>_<phase>.json. *)

let current_experiment = ref "exp"

(* An experiment that overrides harness knobs internally (e.g. scaling
   forces the disk backend and its own value size) registers its
   effective config here so the artifact's "config" block describes
   the run that actually happened, not the CLI defaults. *)
let config_override : t option ref = ref None
let note_config_override h = config_override := Some h

let set_experiment name =
  current_experiment := name;
  config_override := None

let metrics_dir = bench_dir ^ "/metrics"

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> Char.lowercase_ascii c
      | _ -> '_')
    s

let mkdir_p dir =
  List.fold_left
    (fun acc part ->
      let acc = if acc = "" then part else acc ^ "/" ^ part in
      (try Unix.mkdir ("/" ^ acc) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      acc)
    ""
    (String.split_on_char '/' dir |> List.filter (fun p -> p <> ""))

(* ------------------------------------------------------------------ *)
(* Machine-readable bench artifacts: with [--json], every experiment
   flushes one BENCH_<exp>.json carrying the harness config, each
   measured run's throughput / write-amp / latency percentiles, and the
   per-phase registry snapshots — the repo's perf-trajectory baseline
   format (schema documented in DESIGN.md). *)

let artifact_dir = ref None

type sample = {
  sm_engine : string;
  sm_phase : string;
  sm_result : Runner.result;
  sm_write_amp : float;
  sm_attr : string; (* Attr.to_json at sample time ("{}" if unavailable) *)
}

let art_samples : sample list ref = ref [] (* newest first *)
let art_metrics : (string * string * string) list ref = ref []
let art_slow : string list ref = ref [] (* JSONL fragments, newest first *)

let art_series : (string * string * string) list ref = ref []
(* (engine, phase, series-JSON array) — windowed telemetry samples an
   experiment captured from a live sampler (Live.serve's /series
   endpoint or Sampler.to_json), newest first. *)

let artifacts_on () = !artifact_dir <> None

let note_result ?(phase = "run") (e : Engine.t) (r : Runner.result) =
  if artifacts_on () then
    art_samples :=
      {
        sm_engine = e.Engine.name;
        sm_phase = phase;
        sm_result = r;
        sm_write_amp = Engine.write_amplification e;
        sm_attr = (try Evendb_obs.Attr.to_json (e.Engine.attr ()) with _ -> "{}");
      }
      :: !art_samples

(* Attach a windowed-telemetry series (a JSON array of sampler
   samples) to the artifact under the "series" key. *)
let note_series ?(phase = "run") ~engine json =
  if artifacts_on () then art_series := (engine, phase, json) :: !art_series

(* Harvest the engine's slow-op ring into the experiment's
   SLOW_<exp>.jsonl, labelling every record with engine and phase. *)
let note_slow ?(phase = "run") (e : Engine.t) =
  if artifacts_on () then
    match
      Evendb_obs.Attr.slow_ops_jsonl
        ~tags:[ ("engine", e.Engine.name); ("phase", phase) ]
        (e.Engine.attr ())
    with
    | "" -> ()
    | jsonl -> art_slow := jsonl :: !art_slow
    | exception _ -> ()

let dump_metrics (e : Engine.t) ~phase =
  let metrics = try e.Engine.metrics () with _ -> "{}" in
  if artifacts_on () then art_metrics := (e.Engine.name, phase, metrics) :: !art_metrics;
  try
    ignore (mkdir_p metrics_dir);
    let file =
      Printf.sprintf "%s/%s_%s_%s.json" metrics_dir !current_experiment
        (sanitize e.Engine.name) (sanitize phase)
    in
    let oc = open_out file in
    output_string oc metrics;
    output_char oc '\n';
    close_out oc
  with Sys_error _ | Unix.Unix_error _ -> ()

let fresh_env h =
  let faults = Option.map (fun (seed, rate) -> Fault.plan ~seed ~rate ()) h.fault_profile in
  if h.on_disk then begin
    let dir =
      Printf.sprintf "%s/%d_%d" bench_dir (Unix.getpid ()) (int_of_float (Unix.gettimeofday () *. 1e6))
    in
    Env.disk ?faults dir
  end
  else Env.memory ?faults ()

let make_engine h which =
  let env = fresh_env h in
  let e =
    match which with
    | `Evendb -> Engine.evendb ~config:(evendb_config h) env
    | `Lsm -> Engine.lsm ~config:(lsm_config h) env
    | `Flsm -> Engine.flsm ~config:(flsm_config h) env
  in
  if h.fault_profile = None then e else Engine.fault_tolerant e

(* Dataset sizes relative to the RAM budget, mirroring the paper's
   4GB..256GB against 16GB RAM: below / at / 4x above. *)
let dataset_sizes h =
  [ (h.ram_budget / 4, "small(1/4 RAM)"); (h.ram_budget, "medium(=RAM)"); (4 * h.ram_budget, "large(4x RAM)") ]

let items_for h bytes = max 256 (bytes / (h.value_bytes + 14) * h.scale)

let with_engine h which f =
  let e = make_engine h which in
  Fun.protect
    ~finally:(fun () ->
      dump_metrics e ~phase:"final";
      e.Engine.close ())
    (fun () -> f e)

(* ------------------------------------------------------------------ *)
(* Artifact rendering *)

let set_artifact_dir dir =
  (* mkdir_p builds from the root, so anchor relative paths first. *)
  let dir = if Filename.is_relative dir then Filename.concat (Unix.getcwd ()) dir else dir in
  ignore (mkdir_p dir);
  artifact_dir := Some dir

let art_jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let art_percentiles h =
  match Evendb_util.Histogram.percentiles h [ 50.0; 95.0; 99.0 ] with
  | [ p50; p95; p99 ] -> (p50, p95, p99)
  | _ -> (0, 0, 0)

let flush_artifact (h : t) =
  match !artifact_dir with
  | None -> ()
  | Some dir ->
    let h = Option.value ~default:h !config_override in
    let buf = Buffer.create 8192 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    bpf "{\n";
    bpf "  \"schema_version\": 3,\n";
    bpf "  \"experiment\": %s,\n" (art_jstr !current_experiment);
    bpf
      "  \"config\": {\"scale\": %d, \"threads\": %d, \"value_bytes\": %d, \"ram_budget\": \
       %d, \"ops\": %d, \"on_disk\": %b, \"attr\": %b, \"fault_profile\": %s},\n"
      h.scale h.threads h.value_bytes h.ram_budget h.ops h.on_disk h.attr_on
      (match h.fault_profile with
      | None -> "null"
      | Some (seed, rate) -> Printf.sprintf "{\"seed\": %d, \"rate\": %.6f}" seed rate);
    bpf "  \"results\": [";
    List.iteri
      (fun i s ->
        if i > 0 then bpf ",";
        let r = s.sm_result in
        let merged = Evendb_util.Histogram.create () in
        List.iter
          (fun src -> Evendb_util.Histogram.merge_into ~src ~dst:merged)
          [ r.Runner.put_hist; r.Runner.get_hist; r.Runner.scan_hist ];
        let p50, p95, p99 = art_percentiles merged in
        bpf
          "\n    {\"engine\": %s, \"phase\": %s, \"ops\": %d, \"seconds\": %.6f, \
           \"throughput_kops\": %.3f, \"failed_ops\": %d, \"write_amp\": %.4f, \"p50_ns\": \
           %d, \"p95_ns\": %d, \"p99_ns\": %d, \"min_ns\": %d, \"max_ns\": %d, \"latency\": {"
          (art_jstr s.sm_engine) (art_jstr s.sm_phase) r.Runner.ops r.Runner.seconds
          r.Runner.kops r.Runner.failed_ops s.sm_write_amp p50 p95 p99
          (Evendb_util.Histogram.min_value merged)
          (Evendb_util.Histogram.max_value merged);
        List.iteri
          (fun j (op, hist) ->
            if j > 0 then bpf ", ";
            let p50, p95, p99 = art_percentiles hist in
            bpf
              "\"%s\": {\"count\": %d, \"p50_ns\": %d, \"p95_ns\": %d, \"p99_ns\": %d, \
               \"max_ns\": %d}"
              op
              (Evendb_util.Histogram.count hist)
              p50 p95 p99
              (Evendb_util.Histogram.max_value hist))
          [ ("put", r.Runner.put_hist); ("get", r.Runner.get_hist); ("scan", r.Runner.scan_hist) ];
        bpf "}, \"attr\": %s}" s.sm_attr)
      (List.rev !art_samples);
    bpf "\n  ],\n  \"phase_metrics\": [";
    List.iteri
      (fun i (engine, phase, metrics) ->
        if i > 0 then bpf ",";
        bpf "\n    {\"engine\": %s, \"phase\": %s, \"metrics\": %s}" (art_jstr engine)
          (art_jstr phase) metrics)
      (List.rev !art_metrics);
    bpf "\n  ],\n  \"series\": [";
    List.iteri
      (fun i (engine, phase, series) ->
        if i > 0 then bpf ",";
        bpf "\n    {\"engine\": %s, \"phase\": %s, \"samples\": %s}" (art_jstr engine)
          (art_jstr phase) series)
      (List.rev !art_series);
    bpf "\n  ]\n}\n";
    let slow = String.concat "" (List.rev !art_slow) in
    art_samples := [];
    art_metrics := [];
    art_slow := [];
    art_series := [];
    try
      ignore (mkdir_p dir);
      let file = Printf.sprintf "%s/BENCH_%s.json" dir (sanitize !current_experiment) in
      let oc = open_out file in
      Buffer.output_buffer oc buf;
      close_out oc;
      Printf.printf "[artifact] wrote %s\n" file;
      (* Always write the slow-op log (possibly empty) so CI can upload
         it unconditionally. *)
      let slow_file = Printf.sprintf "%s/SLOW_%s.jsonl" dir (sanitize !current_experiment) in
      let oc = open_out slow_file in
      output_string oc slow;
      close_out oc;
      Printf.printf "[artifact] wrote %s\n" slow_file
    with Sys_error _ | Unix.Unix_error _ -> ()
