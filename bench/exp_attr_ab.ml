(* Attribution overhead A/B: identical single-thread YCSB-A segments on
   an EvenDB with per-op cause attribution and one without, in
   interleaved pairs ([Harness.ab]). Each arm loads its store once and
   runs one discarded warm-up segment. CI gates the median per-pair
   on/off throughput ratio at >= 0.95 (attribution costs under 5%).
   The arms ignore --attr. *)

open Evendb_ycsb

let pairs = 1000

let run (h : Harness.t) =
  Report.heading "Attribution overhead A/B: YCSB-A, 1 thread, attr on vs off";
  let items = Harness.items_for h (List.nth (Harness.dataset_sizes h) 0 |> fst) in
  let ops = max 1_000 h.Harness.ops in
  Harness.ab ~pairs ~rebuild:false (fun ~on ->
      let e = Harness.make_engine { h with Harness.on_disk = false; attr_on = on } `Evendb in
      let shared =
        Workload.create_shared ~value_bytes:h.Harness.value_bytes (Workload.Zipf_composite 0.99)
          ~items ~seed:4242
      in
      Runner.load e shared;
      ignore (Runner.run e shared Runner.workload_a ~ops ~threads:1);
      let phase = if on then "attr_on" else "attr_off" in
      (e, [ (phase, fun () -> Runner.run e shared Runner.workload_a ~ops ~threads:1) ]))
