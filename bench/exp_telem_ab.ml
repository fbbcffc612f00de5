(* Telemetry overhead A/B: identical single-thread YCSB-A segments
   alternating between two warmed EvenDB instances — one running the
   full continuous-telemetry stack (100 Hz windowed sampler, metrics
   journal, live HTTP endpoint scraped once per segment), one with
   telemetry fully off — so load-phase, page-cache and allocator noise
   hits both arms equally. The sampler's production default is 1 Hz;
   benchmarking at 100 Hz with an active scraper makes this a
   conservative upper bound. Reports best-of-N segment throughput per
   arm and the relative overhead; CI asserts the telemetry tax stays
   under a few percent at tiny scale. *)

open Evendb_ycsb
module Db = Evendb_core.Db
module Live = Evendb_telemetry.Live

let segments = 5

(* The harness's stock engines never start a sampler (telemetry is
   opt-in), so the on-arm wraps a directly-opened Db and stops its
   telemetry before closing it. *)
let mk_engine ~name ?live db env =
  {
    Engine.name;
    put = Db.put db;
    get = Db.get db;
    delete = Db.delete db;
    scan = (fun ~low ~high ~limit -> Db.scan db ~limit ~low ~high ());
    maintain = (fun () -> Db.maintain db);
    close =
      (fun () ->
        Option.iter Live.stop live;
        Db.close db);
    env;
    logical_bytes = (fun () -> Db.logical_bytes_written db);
    metrics = (fun () -> Db.metrics_dump db `Json);
    attr = (fun () -> Db.attr db);
    absorbed_failures = (fun () -> 0);
  }

let run (h : Harness.t) =
  Report.heading
    "Telemetry overhead A/B: YCSB-A, 1 thread, 100 Hz sampler + live endpoint vs off";
  let items = Harness.items_for h (List.nth (Harness.dataset_sizes h) 0 |> fst) in
  let ops = max 1_000 h.Harness.ops in
  let mk telem_on =
    let h = { h with Harness.on_disk = false } in
    let env = Evendb_storage.Env.memory () in
    let db = Db.open_ ~config:(Harness.evendb_config h) env in
    let live =
      if telem_on then
        Some
          (Live.start ~interval_ns:10_000_000 (* 100 Hz *) ~env ~obs:(Db.obs db)
             ~attr:(Db.attr db)
             ~extra:(fun () -> Db.sampler_gauges db)
             ())
      else None
    in
    let port = Option.map (fun l -> Live.serve ~port:0 l) live in
    let e = mk_engine ~name:(if telem_on then "EvenDB+telemetry" else "EvenDB") ?live db env in
    let shared =
      Workload.create_shared ~value_bytes:h.Harness.value_bytes (Workload.Zipf_composite 0.99)
        ~items ~seed:4242
    in
    Runner.load e shared;
    (* One discarded segment warms caches and branch predictors:
       cold-start noise otherwise dwarfs the ~1-2% signal. *)
    ignore (Runner.run e shared Runner.workload_a ~ops ~threads:1);
    (e, shared, port)
  in
  let e_on, sh_on, port_on = mk true in
  let e_off, sh_off, _ = mk false in
  Fun.protect
    ~finally:(fun () ->
      e_on.Engine.close ();
      e_off.Engine.close ())
    (fun () ->
      let scrape path =
        match port_on with
        | None -> ()
        | Some port -> (
          try ignore (Evendb_telemetry.Http.get ~port path) with _ -> ())
      in
      let best_on = ref 0.0 and best_off = ref 0.0 in
      for seg = 1 to segments do
        (* Alternate which arm goes first so neither always runs into a
           fresher scheduler quantum. *)
        let arms = if seg mod 2 = 1 then [ false; true ] else [ true; false ] in
        List.iter
          (fun telem_on ->
            let e, sh = if telem_on then (e_on, sh_on) else (e_off, sh_off) in
            let r = Runner.run e sh Runner.workload_a ~ops ~threads:1 in
            if telem_on then scrape "/metrics";
            let phase = if telem_on then "telem_on" else "telem_off" in
            Harness.note_result ~phase e r;
            let best = if telem_on then best_on else best_off in
            if r.Runner.kops > !best then best := r.Runner.kops;
            Printf.printf "  segment %d  telemetry %-3s %10.1f kops\n%!" seg
              (if telem_on then "on" else "off")
              r.Runner.kops)
          arms
      done;
      (* Capture the windowed series the sampler accumulated while the
         measured segments ran — the artifact's "series" block. *)
      (match port_on with
      | Some port -> (
        match Evendb_telemetry.Http.get ~port "/series?last=64" with
        | 200, body -> Harness.note_series ~phase:"telem_on" ~engine:e_on.Engine.name body
        | _ -> ()
        | exception _ -> ())
      | None -> ());
      let overhead_pct =
        if !best_off > 0.0 then (!best_off -. !best_on) /. !best_off *. 100.0 else 0.0
      in
      Printf.printf
        "  best: telemetry off %10.1f kops   telemetry on %10.1f kops   overhead %+.2f%%\n"
        !best_off !best_on overhead_pct)
