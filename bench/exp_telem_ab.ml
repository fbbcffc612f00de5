(* Telemetry overhead A/B: identical single-thread YCSB-A segments on
   an EvenDB running the full continuous-telemetry stack (100 Hz
   windowed sampler, metrics journal, live HTTP endpoint scraped after
   every segment) and one with telemetry off, in interleaved pairs
   ([Harness.ab]). The sampler's production default is 1 Hz;
   benchmarking at 100 Hz with an active scraper makes this a
   conservative upper bound. CI gates the median per-pair on/off
   throughput ratio at >= 0.95 (telemetry costs under 5%). *)

open Evendb_ycsb
module Db = Evendb_core.Db
module Live = Evendb_telemetry.Live
module Http = Evendb_telemetry.Http

let pairs = 1000

let run (h : Harness.t) =
  Report.heading
    "Telemetry overhead A/B: YCSB-A, 1 thread, 100 Hz sampler + live endpoint vs off";
  let items = Harness.items_for h (List.nth (Harness.dataset_sizes h) 0 |> fst) in
  let ops = max 1_000 h.Harness.ops in
  Harness.ab ~pairs ~rebuild:false (fun ~on ->
      let env = Evendb_storage.Env.memory () in
      let db = Db.open_ ~config:(Harness.evendb_config { h with Harness.on_disk = false }) env in
      let e = Engine.of_db ~name:(if on then "EvenDB+telemetry" else "EvenDB") db env in
      (* The harness's stock engines never start a sampler (telemetry
         is opt-in), so the on arm starts one; its close captures the
         windowed series (the artifact's "series" block) and stops the
         sampler before the store closes. *)
      let e, scrape =
        if not on then (e, ignore)
        else
          let live =
            Live.start ~interval_ns:10_000_000 (* 100 Hz *) ~env ~obs:(Db.obs db)
              ~attr:(Db.attr db)
              ~extra:(fun () -> Db.sampler_gauges db)
              ()
          in
          let port = Live.serve ~port:0 live in
          let close () =
            (match Http.get ~port "/series?last=64" with
            | 200, body -> Harness.note_series ~phase:"telem_on" ~engine:e.Engine.name body
            | _ -> ()
            | exception _ -> ());
            Live.stop live;
            e.Engine.close ()
          in
          ({ e with Engine.close }, fun () -> try ignore (Http.get ~port "/metrics") with _ -> ())
      in
      let shared =
        Workload.create_shared ~value_bytes:h.Harness.value_bytes (Workload.Zipf_composite 0.99)
          ~items ~seed:4242
      in
      Runner.load e shared;
      ignore (Runner.run e shared Runner.workload_a ~ops ~threads:1);
      let phase = if on then "telem_on" else "telem_off" in
      ( e,
        [
          ( phase,
            fun () ->
              let r = Runner.run e shared Runner.workload_a ~ops ~threads:1 in
              scrape ();
              r );
        ] ))
