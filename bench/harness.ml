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
      (* per-op cause attribution in every engine the harness builds
         (--attr); exp_attr_ab ignores it and builds one arm with
         attribution and one without. *)
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

let art_results : string list ref = ref [] (* rendered result rows, newest first *)
let art_metrics : (string * string * string) list ref = ref []
let art_slow : string list ref = ref [] (* JSONL fragments, newest first *)

let art_series : (string * string * string) list ref = ref []
(* (engine, phase, series-JSON array) — windowed telemetry samples an
   experiment captured from a live sampler (Live.serve's /series
   endpoint or Sampler.to_json), newest first. *)

let artifacts_on () = !artifact_dir <> None

let art_percentiles h =
  match Evendb_util.Histogram.percentiles h [ 50.0; 95.0; 99.0 ] with
  | [ p50; p95; p99 ] -> (p50, p95, p99)
  | _ -> (0, 0, 0)

(* Render the row now: an experiment may note thousands of runs, and
   a kept [Runner.result] holds three histograms. *)
let note_result ?(phase = "run") (e : Engine.t) (r : Runner.result) =
  if artifacts_on () then begin
    let buf = Buffer.create 1024 in
    let bpf fmt = Printf.bprintf buf fmt in
    let jstr = Evendb_obs.Obs.jstr in
    let merged = Evendb_util.Histogram.create () in
    List.iter
      (fun src -> Evendb_util.Histogram.merge_into ~src ~dst:merged)
      [ r.Runner.put_hist; r.Runner.get_hist; r.Runner.scan_hist ];
    let p50, p95, p99 = art_percentiles merged in
    bpf
      "{\"engine\": %t, \"phase\": %t, \"ops\": %d, \"seconds\": %.6f, \"throughput_kops\": \
       %.3f, \"failed_ops\": %d, \"write_amp\": %.4f, \"p50_ns\": %d, \"p95_ns\": %d, \
       \"p99_ns\": %d, \"min_ns\": %d, \"max_ns\": %d, \"latency\": {"
      (jstr e.Engine.name) (jstr phase) r.Runner.ops r.Runner.seconds r.Runner.kops
      r.Runner.failed_ops (Engine.write_amplification e) p50 p95 p99
      (Evendb_util.Histogram.min_value merged)
      (Evendb_util.Histogram.max_value merged);
    List.iteri
      (fun j (op, hist) ->
        if j > 0 then bpf ", ";
        let p50, p95, p99 = art_percentiles hist in
        bpf "\"%s\": {\"count\": %d, \"p50_ns\": %d, \"p95_ns\": %d, \"p99_ns\": %d, \"max_ns\": %d}"
          op
          (Evendb_util.Histogram.count hist)
          p50 p95 p99
          (Evendb_util.Histogram.max_value hist))
      [ ("put", r.Runner.put_hist); ("get", r.Runner.get_hist); ("scan", r.Runner.scan_hist) ];
    bpf "}, \"attr\": %s}" (try Evendb_obs.Attr.to_json (e.Engine.attr ()) with _ -> "{}");
    art_results := Buffer.contents buf :: !art_results
  end

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

(* Attach a metrics object (JSON) to the artifact's "phase_metrics". *)
let note_metrics ~engine ~phase metrics =
  if artifacts_on () then art_metrics := (engine, phase, metrics) :: !art_metrics

let dump_metrics (e : Engine.t) ~phase =
  let metrics = try e.Engine.metrics () with _ -> "{}" in
  note_metrics ~engine:e.Engine.name ~phase metrics;
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
(* A/B experiments (attrab, telemab, scanview). [ab ~pairs ~rebuild
   build] runs [pairs] pairs. [build ~on] builds one arm and returns
   its engine and its measured phases, (name, run) in the same order on
   both arms; each phase is one judged on/off throughput ratio. The
   arms are built once, or fresh for every pair with [~rebuild:true]
   (for phases that use up the state they measure). Within a pair the
   arms take turns phase by phase through [Runner.ab_pair], which
   alternates the arm that goes first; each run starts after a
   [Gc.minor]: both arms share the heap, and emptying the minor heap
   keeps one arm's young garbage from being collected inside the
   other's run. (Neither a [Gc.full_major] per run nor one process per
   arm measured a lower spread, and both cost more; see CHANGES.md.)
   Every run is recorded with [note_result]; the last arms
   leave their slow-op rings and final metrics dumps. One
   [Runner.verdict] per phase is printed and recorded. *)

let art_verdicts : (string * string * Runner.verdict) list ref = ref []

type phases = (string * (unit -> Runner.result)) list

let ab ~pairs ~rebuild (build : on:bool -> Engine.t * phases) =
  let close ~last (e, _) =
    if last then begin
      note_slow e;
      dump_metrics e ~phase:"final"
    end;
    e.Engine.close ()
  in
  let run (e, _) (phase, f) =
    Gc.minor ();
    let r = f () in
    note_result ~phase e r;
    Printf.printf "  %-16s %-10s %10.1f kops\n%!" e.Engine.name phase r.Runner.kops;
    r.Runner.kops
  in
  let arms = ref None in
  let figures =
    List.init pairs (fun pair ->
        let arm_on, arm_off =
          match !arms with
          | Some built when not rebuild -> built
          | _ ->
            let arm_on = build ~on:true in
            let arm_off = build ~on:false in
            arms := Some (arm_on, arm_off);
            (arm_on, arm_off)
        in
        let figure =
          List.map2
            (fun on off ->
              Runner.ab_pair ~pair (fun ~on:is_on ->
                  if is_on then run arm_on on else run arm_off off))
            (snd arm_on) (snd arm_off)
        in
        let last = pair = pairs - 1 in
        if rebuild || last then List.iter (close ~last) [ arm_on; arm_off ];
        figure)
  in
  let (_, on_phases), (_, off_phases) = Option.get !arms in
  List.iteri
    (fun i (on_phase, off_phase) ->
      let v = Runner.verdict (List.map (fun figure -> List.nth figure i) figures) in
      Printf.printf "verdict %s vs %s: median on/off %.3fx; on won %d, off won %d of %d pairs\n"
        on_phase off_phase v.Runner.median v.Runner.on_wins v.Runner.off_wins pairs;
      art_verdicts := (on_phase, off_phase, v) :: !art_verdicts)
    (List.combine (List.map fst on_phases) (List.map fst off_phases))

(* ------------------------------------------------------------------ *)
(* Artifact rendering *)

let set_artifact_dir dir =
  (* mkdir_p builds from the root, so anchor relative paths first. *)
  let dir = if Filename.is_relative dir then Filename.concat (Unix.getcwd ()) dir else dir in
  ignore (mkdir_p dir);
  artifact_dir := Some dir

let flush_artifact (h : t) =
  match !artifact_dir with
  | None -> ()
  | Some dir ->
    let h = Option.value ~default:h !config_override in
    let buf = Buffer.create 8192 in
    let bpf fmt = Printf.bprintf buf fmt in
    let jstr = Evendb_obs.Obs.jstr in
    bpf "{\n";
    bpf "  \"schema_version\": 3,\n";
    bpf "  \"experiment\": %t,\n" (jstr !current_experiment);
    bpf
      "  \"config\": {\"scale\": %d, \"threads\": %d, \"value_bytes\": %d, \"ram_budget\": \
       %d, \"ops\": %d, \"on_disk\": %b, \"attr\": %b, \"fault_profile\": %s},\n"
      h.scale h.threads h.value_bytes h.ram_budget h.ops h.on_disk h.attr_on
      (match h.fault_profile with
      | None -> "null"
      | Some (seed, rate) -> Printf.sprintf "{\"seed\": %d, \"rate\": %.6f}" seed rate);
    bpf "  \"results\": [";
    List.iteri
      (fun i row ->
        if i > 0 then bpf ",";
        bpf "\n    %s" row)
      (List.rev !art_results);
    bpf "\n  ],\n  \"phase_metrics\": [";
    List.iteri
      (fun i (engine, phase, metrics) ->
        if i > 0 then bpf ",";
        bpf "\n    {\"engine\": %t, \"phase\": %t, \"metrics\": %s}" (jstr engine)
          (jstr phase) metrics)
      (List.rev !art_metrics);
    bpf "\n  ],\n  \"series\": [";
    List.iteri
      (fun i (engine, phase, series) ->
        if i > 0 then bpf ",";
        bpf "\n    {\"engine\": %t, \"phase\": %t, \"samples\": %s}" (jstr engine)
          (jstr phase) series)
      (List.rev !art_series);
    bpf "\n  ],\n  \"verdicts\": [";
    List.iteri
      (fun i (on_phase, off_phase, (v : Runner.verdict)) ->
        if i > 0 then bpf ",";
        bpf
          "\n    {\"phase\": %t, \"off_phase\": %t, \"median_ratio\": %.4f, \"on_wins\": %d, \
           \"off_wins\": %d, \"pairs\": %d, \"ratios\": [%s]}"
          (jstr on_phase) (jstr off_phase) v.median v.on_wins v.off_wins
          (List.length v.ratios)
          (String.concat ", " (List.map (Printf.sprintf "%.4f") v.ratios)))
      (List.rev !art_verdicts);
    bpf "\n  ]\n}\n";
    let slow = String.concat "" (List.rev !art_slow) in
    art_results := [];
    art_metrics := [];
    art_slow := [];
    art_series := [];
    art_verdicts := [];
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
