(* Continuous-telemetry tests: windowed sampler correctness (delta
   percentiles vs a rank-based reference), ring and journal bounds,
   journal integrity under corruption and crash, the multi-domain
   sampler under concurrent load, the loopback HTTP endpoint, and
   fsck's handling of the telemetry namespace. *)

open Evendb_storage
open Evendb_core
module Obs = Evendb_obs.Obs
module Tel = Evendb_telemetry
module Sampler = Tel.Sampler
module Journal = Tel.Journal
module Live = Tel.Live
module Scrub = Evendb_check.Scrub

let with_disk_env f =
  let dir = Filename.temp_file "evendb_sampler" "" in
  Sys.remove dir;
  let env = Env.disk dir in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun name -> try Env.delete env name with _ -> ()) (Env.list_files env);
      List.iter
        (fun sub -> try Unix.rmdir (Filename.concat dir sub) with _ -> ())
        [ "telemetry"; "quarantine" ];
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir env)

(* ------------------------------------------------------------------ *)
(* Windowed percentiles: the sampler's bucket-delta estimates must
   match a rank-based reference over exactly the window's values — a
   contaminated window (warmup leaking in) is off by orders of
   magnitude because the warmup distribution is disjoint. *)

let reference_percentile values p =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
  List.nth sorted (rank - 1)

let windowed_percentiles () =
  let obs = Obs.create () in
  let tm = Obs.timer obs "lat" in
  (* Warmup: a disjoint, much slower distribution. *)
  for _ = 1 to 500 do
    Obs.Timer.record_ns tm 50_000_000
  done;
  let s = Sampler.create ~sources:[ ("", obs) ] () in
  ignore (Sampler.tick s);
  (* The window under test: 1..1000 µs. *)
  let values = List.init 1000 (fun i -> (i + 1) * 1_000) in
  List.iter (Obs.Timer.record_ns tm) values;
  let sample = Sampler.tick s in
  let w = List.assoc "lat" sample.Sampler.s_timers in
  Alcotest.(check int) "window count" 1000 w.Sampler.w_count;
  let mean_ref = List.fold_left ( + ) 0 values |> float_of_int in
  let mean_ref = mean_ref /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "windowed mean %.1f ~ %.1f" w.Sampler.w_mean_ns mean_ref)
    true
    (Float.abs (w.Sampler.w_mean_ns -. mean_ref) /. mean_ref < 0.001);
  List.iter
    (fun (p, got) ->
      let r = reference_percentile values p in
      (* Bucket upper bounds: got >= true value, within the histogram's
         2^-6 sub-bucket resolution. *)
      let ok = got >= r && float_of_int got <= (float_of_int r *. 1.04) +. 64. in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f: got %d, reference %d" p got r)
        true ok)
    [ (50., w.Sampler.w_p50_ns); (95., w.Sampler.w_p95_ns); (99., w.Sampler.w_p99_ns) ];
  (* Max: bucket estimate of 1000µs, never contaminated by the 50ms
     warmup. *)
  Alcotest.(check bool) "windowed max ~ 1ms, not 50ms" true
    (w.Sampler.w_max_ns >= 1_000_000 && w.Sampler.w_max_ns < 2_000_000);
  (* A quiet window drops the timer entirely. *)
  let sample3 = Sampler.tick s in
  Alcotest.(check bool) "quiet window omits timer" true
    (List.assoc_opt "lat" sample3.Sampler.s_timers = None)

let counter_deltas_and_gauges () =
  let obs = Obs.create () in
  let c = Obs.counter obs "events" in
  let gauge = Obs.gauge obs "level" in
  let s = Sampler.create ~extra:(fun () -> [ ("extra.g", 7) ]) ~sources:[ ("", obs) ] () in
  Obs.Counter.add c 5;
  Obs.Gauge.set gauge 42;
  let s1 = Sampler.tick s in
  Alcotest.(check (option int)) "delta 5" (Some 5) (List.assoc_opt "events" s1.Sampler.s_deltas);
  Alcotest.(check (option int)) "gauge 42" (Some 42) (List.assoc_opt "level" s1.Sampler.s_gauges);
  Alcotest.(check (option int)) "extra gauge" (Some 7) (List.assoc_opt "extra.g" s1.Sampler.s_gauges);
  Obs.Counter.add c 3;
  let s2 = Sampler.tick s in
  Alcotest.(check (option int)) "delta 3" (Some 3) (List.assoc_opt "events" s2.Sampler.s_deltas);
  let s3 = Sampler.tick s in
  Alcotest.(check (option int)) "zero delta omitted" None (List.assoc_opt "events" s3.Sampler.s_deltas);
  Alcotest.(check (option int)) "gauge persists" (Some 42) (List.assoc_opt "level" s3.Sampler.s_gauges)

let ring_bound () =
  let obs = Obs.create () in
  let s = Sampler.create ~ring:4 ~sources:[ ("", obs) ] () in
  for _ = 1 to 10 do
    ignore (Sampler.tick s)
  done;
  let seqs = List.map (fun x -> x.Sampler.s_seq) (Sampler.samples s) in
  Alcotest.(check (list int)) "ring keeps newest 4" [ 6; 7; 8; 9 ] seqs;
  let last2 = List.map (fun x -> x.Sampler.s_seq) (Sampler.samples ~last:2 s) in
  Alcotest.(check (list int)) "last=2" [ 8; 9 ] last2

let json_roundtrip () =
  let obs = Obs.create () in
  let c = Obs.counter obs "n" in
  let tm = Obs.timer obs "t" in
  let s = Sampler.create ~sources:[ ("", obs) ] () in
  Obs.Counter.add c 2;
  Obs.Timer.record_ns tm 5_000;
  ignore (Sampler.tick s);
  Obs.Counter.add c 4;
  Obs.Timer.record_ns tm 9_000;
  ignore (Sampler.tick s);
  let parsed = Sampler.samples_of_json (Sampler.to_json s) in
  Alcotest.(check int) "two samples" 2 (List.length parsed);
  let orig = Sampler.samples s in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "seq" a.Sampler.s_seq b.Sampler.s_seq;
      Alcotest.(check bool) "deltas" true (a.Sampler.s_deltas = b.Sampler.s_deltas);
      Alcotest.(check bool) "gauges" true (a.Sampler.s_gauges = b.Sampler.s_gauges);
      Alcotest.(check int) "timers" (List.length a.Sampler.s_timers)
        (List.length b.Sampler.s_timers))
    orig parsed

(* The record layout is also the journal format: pin its exact bytes,
   escaping included. *)
let sample_json_bytes () =
  let s =
    {
      Sampler.s_seq = 3;
      s_wall_ns = 17;
      s_dur_ns = -1;
      s_deltas = [ ("a\"b", 2) ];
      s_gauges = [ ("g\n", 5); ("h", -7) ];
      s_timers =
        [
          ( "db.put",
            {
              Sampler.w_count = 1;
              w_mean_ns = 2.25;
              w_p50_ns = 3;
              w_p95_ns = 4;
              w_p99_ns = 5;
              w_max_ns = 6;
            } );
        ];
    }
  in
  Alcotest.(check string)
    "sample_to_json bytes"
    ({|{"seq":3,"wall_ns":17,"dur_ns":-1,"deltas":{"a\"b":2},"gauges":{"g\n":5,"h":-7},|}
    ^ {|"timers":{"db.put":{"count":1,"mean_ns":2.2,"p50_ns":3,"p95_ns":4,"p99_ns":5,"max_ns":6}}}|}
    )
    (Sampler.sample_to_json s)

(* ------------------------------------------------------------------ *)
(* evendb top: stall-cause shares come from the window between the two
   newest samples — a cause's attr.total_ns growth over the op timers'
   count x mean — so a cause with a large but unchanged lifetime total
   is not a stall of this window. *)

let top_stall_shares () =
  let sample seq ~fsync ~timers =
    {
      Sampler.s_seq = seq;
      s_wall_ns = seq * 1_000_000_000;
      s_dur_ns = 1_000_000_000;
      s_deltas = [];
      s_gauges = [ ("attr.total_ns.fsync", fsync); ("attr.total_ns.lock_wait", 50_000_000) ];
      s_timers = timers;
    }
  in
  let put =
    {
      Sampler.w_count = 10;
      w_mean_ns = 400_000.;
      w_p50_ns = 400_000;
      w_p95_ns = 400_000;
      w_p99_ns = 400_000;
      w_max_ns = 400_000;
    }
  in
  let prev = sample 1 ~fsync:1_000_000 ~timers:[] in
  let cur = sample 2 ~fsync:4_000_000 ~timers:[ ("db.put", put) ] in
  let contains sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let frame = Tel.Top.render [ prev; cur ] in
  Alcotest.(check bool) "stall section rendered" true (contains "STALL CAUSES" frame);
  (match List.find_opt (contains "fsync") (String.split_on_char '\n' frame) with
  | Some l -> Alcotest.(check bool) ("fsync at 75.0%: " ^ l) true (contains "75.0%" l)
  | None -> Alcotest.failf "no fsync line in:\n%s" frame);
  Alcotest.(check bool) "unchanged cause not listed" false (contains "lock_wait" frame);
  let single = Tel.Top.render [ cur ] in
  Alcotest.(check bool) "one sample: no stall section" false (contains "STALL CAUSES" single);
  Alcotest.(check bool) "one sample: ops still shown" true (contains "db.put" single)

(* ------------------------------------------------------------------ *)
(* Journal *)

let journal_rotate_prune_replay () =
  let env = Env.memory () in
  let j = Journal.create env ~segment_bytes:256 ~max_segments:2 in
  let records = List.init 30 (fun i -> Printf.sprintf "record-%03d-%s" i (String.make 20 'x')) in
  List.iter (Journal.append j) records;
  Journal.close j;
  let segs = Journal.list_segments env in
  Alcotest.(check bool)
    (Printf.sprintf "pruned to <= 2 segments (got %d)" (List.length segs))
    true
    (List.length segs <= 2);
  let replayed = Journal.replay env in
  Alcotest.(check bool) "replay non-empty" true (replayed <> []);
  (* Replay must be a contiguous suffix of what was appended. *)
  let n = List.length replayed in
  let expected = List.filteri (fun i _ -> i >= 30 - n) records in
  Alcotest.(check (list string)) "replay = appended suffix" expected replayed

let journal_fresh_segment_per_create () =
  let env = Env.memory () in
  let j0 = Journal.create env ~segment_bytes:4096 ~max_segments:4 in
  Journal.append j0 "first-incarnation";
  Journal.close j0;
  let j1 = Journal.create env ~segment_bytes:4096 ~max_segments:4 in
  Journal.append j1 "second-incarnation";
  Journal.close j1;
  Alcotest.(check int) "two segments" 2 (List.length (Journal.list_segments env));
  Alcotest.(check (list string)) "replay crosses incarnations"
    [ "first-incarnation"; "second-incarnation" ] (Journal.replay env)

let journal_crc_flip_rejected () =
  with_disk_env (fun dir env ->
      let j = Journal.create env ~segment_bytes:65536 ~max_segments:2 in
      List.iter (Journal.append j) [ "alpha-record"; "beta-record"; "gamma-record" ];
      Journal.close j;
      let name = Journal.segment_name 0 in
      let ck = Journal.check env name in
      Alcotest.(check int) "3 clean records" 3 ck.Journal.ck_records;
      Alcotest.(check bool) "clean" true (ck.Journal.ck_error = None);
      (* Flip one payload byte of the second record on disk. The first
         frame is magic(6) + varint(1) + "alpha-record"(12) + crc(4);
         offset 24 lands inside "beta-record"'s payload. *)
      let path = Filename.concat dir name in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let off = 24 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let ck = Journal.check env name in
      Alcotest.(check int) "only the prefix survives" 1 ck.Journal.ck_records;
      Alcotest.(check bool) "checksum error reported" true
        (match ck.Journal.ck_error with Some e -> e = "bad record checksum" | None -> false);
      Alcotest.(check (list string)) "records stop at the flip" [ "alpha-record" ]
        (Journal.records env name))

let journal_survives_crash () =
  let env = Env.memory () in
  let j = Journal.create env ~segment_bytes:65536 ~max_segments:4 in
  List.iter (Journal.append j) [ "r0"; "r1"; "r2"; "r3"; "r4" ];
  (* No close: the process dies here. Every append fsyncs, so all five
     frames survive the crash. *)
  Env.crash env;
  Alcotest.(check (list string)) "all fsynced records replay" [ "r0"; "r1"; "r2"; "r3"; "r4" ]
    (Journal.replay env);
  (* The next incarnation starts a fresh segment above the survivor. *)
  let j2 = Journal.create env ~segment_bytes:65536 ~max_segments:4 in
  Journal.append j2 "after-crash";
  Journal.close j2;
  Alcotest.(check (list string)) "history accumulates across the crash"
    [ "r0"; "r1"; "r2"; "r3"; "r4"; "after-crash" ] (Journal.replay env)

let journal_torn_tail_tolerated () =
  let env = Env.memory () in
  let j = Journal.create env ~segment_bytes:65536 ~max_segments:4 in
  Journal.append j "good-one";
  Journal.append j "good-two";
  Journal.close j;
  let name = Journal.segment_name 0 in
  (* A torn frame: claims 100 payload bytes, delivers 7. *)
  let f = Env.open_append env name in
  Env.append f "\100half-fr";
  Env.fsync f;
  Env.close_file f;
  let ck = Journal.check env name in
  Alcotest.(check int) "valid prefix parses" 2 ck.Journal.ck_records;
  Alcotest.(check bool) "truncation reported" true
    (ck.Journal.ck_error = Some "truncated record");
  Alcotest.(check (list string)) "replay stops at the tear" [ "good-one"; "good-two" ]
    (Journal.replay env)

(* ------------------------------------------------------------------ *)
(* Concurrency: a fast background sampler racing writers on several
   domains must lose nothing — after the dust settles, the summed
   per-window deltas equal the lifetime totals. *)

let multi_domain_hammer () =
  let obs = Obs.create () in
  let c = Obs.counter obs "ops" in
  let tm = Obs.timer obs "lat" in
  let s = Sampler.create ~ring:4096 ~sources:[ ("", obs) ] () in
  Sampler.start s ~interval_ns:1_000_000;
  let per_domain = 20_000 in
  let domains =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Counter.incr c;
              Obs.Timer.record_ns tm (1_000 + (((d * per_domain) + i) mod 1_000_000))
            done))
  in
  List.iter Domain.join domains;
  Sampler.stop s;
  ignore (Sampler.tick s);
  let samples = Sampler.samples s in
  Alcotest.(check bool)
    (Printf.sprintf "background domain ticked (%d samples)" (List.length samples))
    true
    (List.length samples >= 1);
  let sum_deltas =
    List.fold_left
      (fun acc x ->
        acc + match List.assoc_opt "ops" x.Sampler.s_deltas with Some d -> d | None -> 0)
      0 samples
  in
  Alcotest.(check int) "counter deltas sum to lifetime" (3 * per_domain) sum_deltas;
  let sum_counts =
    List.fold_left
      (fun acc x ->
        acc
        + match List.assoc_opt "lat" x.Sampler.s_timers with
          | Some w -> w.Sampler.w_count
          | None -> 0)
      0 samples
  in
  Alcotest.(check int) "windowed op counts sum to lifetime" (3 * per_domain) sum_counts

(* ------------------------------------------------------------------ *)
(* HTTP endpoint, over a live store. *)

let live_db ~interval_ns db =
  Live.start ~interval_ns ~env:(Db.env db) ~obs:(Db.obs db) ~attr:(Db.attr db)
    ~extra:(fun () -> Db.sampler_gauges db)
    ()

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let http_endpoint_smoke () =
  let db = Db.open_ ~config:(Config.scaled ~factor:64 ()) (Env.memory ()) in
  (* 20ms: several ticks in the test. *)
  let live = live_db ~interval_ns:20_000_000 db in
  Fun.protect
    ~finally:(fun () ->
      Live.stop live;
      Db.close db)
    (fun () ->
      let port = Live.serve live in
      Alcotest.(check bool) "ephemeral port bound" true (port > 0);
      Alcotest.(check int) "idempotent serve returns same port" port (Live.serve live);
      for i = 1 to 500 do
        Db.put db (Printf.sprintf "user%04d" (i mod 40)) "v";
        ignore (Db.get db (Printf.sprintf "user%04d" (i mod 40)))
      done;
      Unix.sleepf 0.1;
      let status, metrics = Tel.Http.get ~port "/metrics" in
      Alcotest.(check int) "/metrics 200" 200 status;
      Alcotest.(check bool) "summary family present" true
        (contains metrics "# TYPE evendb_db_put_ns summary");
      Alcotest.(check bool) "_sum sample present" true (contains metrics "evendb_db_put_ns_sum");
      Alcotest.(check bool) "no _mean sample" false (contains metrics "_ns_mean");
      let status, body = Tel.Http.get ~port "/series?last=4" in
      Alcotest.(check int) "/series 200" 200 status;
      let samples = Sampler.samples_of_json body in
      Alcotest.(check bool) "series has samples" true (samples <> []);
      let newest = List.nth samples (List.length samples - 1) in
      Alcotest.(check bool) "uptime gauge exported" true
        (List.assoc_opt "db.uptime_ns" newest.Sampler.s_gauges <> None);
      Alcotest.(check bool) "hot prefixes exported" true
        (List.exists
           (fun (n, _) -> String.length n > 4 && String.sub n 0 4 = "hot.")
           newest.Sampler.s_gauges);
      let status, body = Tel.Http.get ~port "/stat.json" in
      Alcotest.(check int) "/stat.json 200" 200 status;
      let j = Tel.Tiny_json.parse body in
      Alcotest.(check bool) "stat has uptime" true
        (Option.bind (Tel.Tiny_json.member "uptime_ns" j) Tel.Tiny_json.to_int <> None);
      Alcotest.(check bool) "stat has put rate" true
        (match
           Option.bind (Tel.Tiny_json.member "ops" j) (Tel.Tiny_json.member "put")
         with
        | Some v -> Option.bind (Tel.Tiny_json.member "count" v) Tel.Tiny_json.to_int = Some 500
        | None -> false);
      let status, body = Tel.Http.get ~port "/trace" in
      Alcotest.(check int) "/trace 200" 200 status;
      Alcotest.(check bool) "trace is json" true (String.length body > 0 && body.[0] = '{');
      let status, _ = Tel.Http.get ~port "/slow" in
      Alcotest.(check int) "/slow 200" 200 status;
      let status, _ = Tel.Http.get ~port "/no-such-endpoint" in
      Alcotest.(check int) "404 on unknown path" 404 status;
      Live.stop live;
      Alcotest.(check bool) "endpoint down after stop" true
        (match Tel.Http.get ~port "/metrics" with
        | exception _ -> true
        | 200, _ -> false
        | _ -> true))

(* Live needs only a registry and an attribution state, so a baseline
   engine serves the same endpoint. *)
let live_over_lsm () =
  let env = Env.memory () in
  let lsm = Evendb_lsm.Lsm.open_ env in
  let live =
    Live.start ~interval_ns:20_000_000 ~env ~obs:(Evendb_lsm.Lsm.obs lsm)
      ~attr:(Evendb_lsm.Lsm.attr lsm)
      ~extra:(fun () -> [])
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Live.stop live;
      Evendb_lsm.Lsm.close lsm)
    (fun () ->
      let port = Live.serve live in
      for i = 1 to 200 do
        Evendb_lsm.Lsm.put lsm (Printf.sprintf "user%04d" i) "v"
      done;
      let status, metrics = Tel.Http.get ~port "/metrics" in
      Alcotest.(check int) "/metrics 200" 200 status;
      Alcotest.(check bool) "put summary family present" true
        (contains metrics "# TYPE evendb_db_put_ns summary");
      let status, body = Tel.Http.get ~port "/stat.json" in
      Alcotest.(check int) "/stat.json 200" 200 status;
      let j = Tel.Tiny_json.parse body in
      Alcotest.(check (option int)) "stat counts the lsm's puts" (Some 200)
        (Option.bind
           (Option.bind (Tel.Tiny_json.member "ops" j) (Tel.Tiny_json.member "put"))
           (fun v -> Option.bind (Tel.Tiny_json.member "count" v) Tel.Tiny_json.to_int)))

(* ------------------------------------------------------------------ *)
(* fsck: a corrupt old journal segment is an error and gets
   quarantined; a torn newest segment is only a warning; neither ever
   breaks Db.open_. *)

let scrub_quarantines_corrupt_segment () =
  with_disk_env (fun dir env ->
      (* Two incarnations' segments, then damage the older one. *)
      let j0 = Journal.create env ~segment_bytes:65536 ~max_segments:4 in
      Journal.append j0 "old-incarnation-record";
      Journal.close j0;
      let j1 = Journal.create env ~segment_bytes:65536 ~max_segments:4 in
      Journal.append j1 "new-incarnation-record";
      Journal.close j1;
      let seg0 = Journal.segment_name 0 in
      let path = Filename.concat dir seg0 in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      ignore (Unix.lseek fd 10 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "X") 0 1);
      Unix.close fd;
      let report = Scrub.scrub env in
      let finding =
        List.find_opt (fun f -> f.Scrub.f_file = seg0) report.Scrub.findings
      in
      (match finding with
      | Some f ->
        Alcotest.(check bool) "old segment damage is an Error" true
          (f.Scrub.f_severity = Scrub.Error)
      | None -> Alcotest.fail "no finding for the corrupt segment");
      let repaired = Scrub.repair env in
      Alcotest.(check bool) "repair quarantined it" true
        (List.exists (fun (file, _) -> file = seg0) repaired.Scrub.actions);
      Alcotest.(check bool) "segment moved to quarantine" true
        (Env.exists env (Env.quarantined seg0) && not (Env.exists env seg0));
      (* The untouched newer segment still replays; the store opens. *)
      Alcotest.(check (list string)) "healthy history remains"
        [ "new-incarnation-record" ] (Journal.replay env);
      let db = Db.open_ env in
      Db.put db "k" "v";
      Alcotest.(check (option string)) "store works" (Some "v") (Db.get db "k");
      Db.close db)

let scrub_warns_on_torn_tail () =
  let env = Env.memory () in
  let j = Journal.create env ~segment_bytes:65536 ~max_segments:4 in
  Journal.append j "complete-record";
  Journal.close j;
  let name = Journal.segment_name 0 in
  let f = Env.open_append env name in
  Env.append f "\050torn";
  Env.close_file f;
  let report = Scrub.scrub env in
  (match List.find_opt (fun f -> f.Scrub.f_file = name) report.Scrub.findings with
  | Some f ->
    Alcotest.(check bool) "torn newest tail is a Warning" true
      (f.Scrub.f_severity = Scrub.Warning && f.Scrub.f_kind = Scrub.Log_garbage)
  | None -> Alcotest.fail "no finding for the torn segment");
  Alcotest.(check bool) "still no errors overall" true (Scrub.is_clean report)

(* A store with an active sampler writes its journal under telemetry/;
   reopening the same directory must neither sweep nor choke on it. *)
let open_preserves_journal () =
  with_disk_env (fun _dir env ->
      let config = Config.scaled ~factor:64 () in
      let db = Db.open_ ~config env in
      let live = live_db ~interval_ns:5_000_000 db in
      ignore (Live.serve live);
      for i = 1 to 100 do
        Db.put db (Printf.sprintf "k%03d" i) "v"
      done;
      Unix.sleepf 0.05;
      Live.stop live;
      Db.close db;
      let before = Journal.replay env in
      Alcotest.(check bool) "journal has samples from the first run" true (before <> []);
      let db = Db.open_ ~config env in
      Db.close db;
      let after = Journal.replay env in
      Alcotest.(check bool) "reopen kept the journal intact" true
        (List.length after >= List.length before);
      (* The journaled records parse back into samples. *)
      List.iter
        (fun r ->
          match Sampler.sample_of_json r with
          | Some _ -> ()
          | None -> Alcotest.fail "journal record failed to parse as a sample")
        before)

let suite =
  [
    ( "sampler",
      [
        Alcotest.test_case "windowed percentiles vs reference" `Quick windowed_percentiles;
        Alcotest.test_case "counter deltas and gauges" `Quick counter_deltas_and_gauges;
        Alcotest.test_case "ring bound under overflow" `Quick ring_bound;
        Alcotest.test_case "series JSON round-trip" `Quick json_roundtrip;
        Alcotest.test_case "sample JSON bytes" `Quick sample_json_bytes;
        Alcotest.test_case "top stall shares from the window" `Quick top_stall_shares;
        Alcotest.test_case "multi-domain hammer loses nothing" `Quick multi_domain_hammer;
      ] );
    ( "metrics journal",
      [
        Alcotest.test_case "rotation, pruning, replay order" `Quick journal_rotate_prune_replay;
        Alcotest.test_case "fresh segment per incarnation" `Quick journal_fresh_segment_per_create;
        Alcotest.test_case "flipped byte rejected by CRC" `Quick journal_crc_flip_rejected;
        Alcotest.test_case "replays after crash" `Quick journal_survives_crash;
        Alcotest.test_case "torn tail tolerated" `Quick journal_torn_tail_tolerated;
      ] );
    ( "telemetry endpoint",
      [
        Alcotest.test_case "http smoke over loopback" `Quick http_endpoint_smoke;
        Alcotest.test_case "serves an lsm engine" `Quick live_over_lsm;
      ] );
    ( "telemetry fsck",
      [
        Alcotest.test_case "corrupt old segment quarantined" `Quick
          scrub_quarantines_corrupt_segment;
        Alcotest.test_case "torn newest tail is a warning" `Quick scrub_warns_on_torn_tail;
        Alcotest.test_case "open preserves the journal" `Quick open_preserves_journal;
      ] );
  ]
