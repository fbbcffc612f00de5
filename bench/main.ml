(* Benchmark harness entry point: regenerates every table and figure
   of the paper's evaluation (§5) at laptop scale.

     dune exec bench/main.exe                 # everything, small scale
     dune exec bench/main.exe -- fig6         # one experiment
     dune exec bench/main.exe -- --scale 4    # 4x datasets and ops
     dune exec bench/main.exe -- --threads 4 --ops 100000 fig3 fig5 *)

open Cmdliner

let experiments =
  [
    ("fig1", "app popularity distribution", Exp_fig1.run);
    ("fig3", "ingestion: throughput, dynamics, write amp + Table 2 + Fig 4", Exp_fig3.run);
    ("table2", "(alias of fig3)", Exp_fig3.run);
    ("fig4", "(alias of fig3)", Exp_fig3.run);
    ("fig5", "scan-dominated analytics", Exp_fig5.run);
    ("fig6", "YCSB workloads + Figure 7 write amp", Exp_fig6.run);
    ("fig7", "(alias of fig6)", Exp_fig6.run);
    ("fig8", "tail latencies, workload A", Exp_fig8.run);
    ("fig9", "get latency breakdown", Exp_fig9.run);
    ("fig10", "skew sensitivity + Table 3", Exp_fig10.run);
    ("table3", "(alias of fig10)", Exp_fig10.run);
    ("table4", "EvenDB vs PebblesDB-like FLSM", Exp_table4.run);
    ("fig11", "thread scalability", Exp_fig11.run);
    ("fig12", "config sensitivity (log limit, bloom split)", Exp_fig12.run);
    ("ablation", "design-component ablations + sync/async cost", Exp_ablation.run);
    ("scaling", "sync-durable throughput vs domains (group commit + shards; forces --disk)", Exp_scaling.run);
    ("micro", "bechamel micro-benchmarks", Exp_micro.run);
    ("attrab", "attribution overhead A/B (attr on vs off)", Exp_attr_ab.run);
    ("telemab", "telemetry sampler+endpoint overhead A/B (telemetry on vs off)", Exp_telem_ab.run);
    ("scanview", "block-cache A/B (shared sstable block cache on vs off)", Exp_scanview.run);
  ]

(* Aliases share a runner; dedupe so `main.exe` runs each once. *)
let default_set =
  [ "fig1"; "fig3"; "fig5"; "fig6"; "fig8"; "fig9"; "fig10"; "table4"; "fig11"; "fig12"; "ablation"; "micro" ]

let run_selected scale threads ops disk fault_profile attr_on json names =
  if json then Harness.set_artifact_dir "bench_artifacts";
  let fault_profile =
    Option.map
      (fun s ->
        (* Parse up front so a malformed profile fails before any
           experiment runs; the harness re-seeds a fresh plan per
           engine environment. *)
        let p = Evendb_storage.Fault.parse_profile s in
        (Evendb_storage.Fault.seed p, Evendb_storage.Fault.rate p))
      fault_profile
  in
  let h =
    { Harness.default with Harness.scale; threads; ops; on_disk = disk; fault_profile; attr_on }
  in
  let names = if names = [] then default_set else names in
  (* Aliases (table2 -> fig3, fig7 -> fig6, ...) share a runner; dedupe
     by canonical name so each runs once. *)
  let canonical =
    [ ("table2", "fig3"); ("fig4", "fig3"); ("fig7", "fig6"); ("table3", "fig10") ]
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun name ->
      match List.assoc_opt name (List.map (fun (n, _, f) -> (n, f)) experiments) with
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
        exit 1
      | Some f ->
        let canon = Option.value ~default:name (List.assoc_opt name canonical) in
        if not (Hashtbl.mem seen canon) then begin
          Hashtbl.replace seen canon ();
          Harness.set_experiment canon;
          f h;
          Harness.flush_artifact h
        end)
    names;
  Printf.printf "\nAll selected experiments completed.\n"

let scale_arg =
  Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Dataset/op multiplier (1 = quick).")

let threads_arg =
  Arg.(value & opt int 2 & info [ "threads" ] ~doc:"Worker domains per run.")

let ops_arg =
  Arg.(value & opt int 10_000 & info [ "ops" ] ~doc:"Measured operations per run.")

let disk_arg =
  Arg.(value & flag & info [ "disk" ] ~doc:"Use real files under the TMPDIR directory (default /tmp) instead of the in-memory environment.")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-profile" ] ~docv:"SEED:RATE"
        ~doc:
          "Inject storage faults while benchmarking: each append/fsync/rename fails with \
           probability RATE under a deterministic schedule derived from SEED (e.g. 42:0.01). \
           Injected counts are recorded in the per-phase metrics dumps.")

let attr_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "attr" ] ~docv:"on|off"
        ~doc:
          "Per-op tail-latency cause attribution in every engine (default on). $(b,off) \
           disables it to measure its own overhead; the attrab experiment runs both arms \
           itself regardless of this flag.")

let json_arg =
  Arg.(
    value
    & flag
    & info [ "json" ]
        ~doc:
          "Write one machine-readable BENCH_<exp>.json per experiment (harness config, \
           per-run throughput / write-amp / p50-p95-p99 latency, per-phase metrics \
           snapshots) into ./bench_artifacts.")

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run (default: all).")

let cmd =
  let doc = "Regenerate the EvenDB paper's tables and figures" in
  Cmd.v (Cmd.info "evendb-bench" ~doc)
    Term.(
      const run_selected $ scale_arg $ threads_arg $ ops_arg $ disk_arg $ fault_arg $ attr_arg
      $ json_arg $ names_arg)

let () = exit (Cmd.eval cmd)
