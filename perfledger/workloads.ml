(* The seven named workloads and how one run of a workload is measured.

   Set-up opens the store, loads it with [Runner.load] (keys in order,
   then maintenance to quiescence) and warms it with 2000 gets (an
   ingest workload starts empty and is warmed with 2000 inserts); it is
   done three times, spread over the run, and its median time is
   [setup_s]. The first set-up's files are kept. The measured phase is a
   series of episodes until the measured time reaches the requested
   seconds and at least [min_episodes] ran: each episode reopens a store
   over a copy of those files, warms it with the same 2000 gets, and
   drives the same op sequence through [Runner.run]. So every episode
   does the same work, and episodes differ only in how fast the machine
   ran them. The machine this was tuned on runs up to 1.6 times slower
   in spells of seconds to minutes, so throughput comes from the fastest
   episode, not from a mean or a median that a spell inside the run
   would shift. Write and space amplification come from the first
   episode. The last episode ends with an untimed check of every acked
   key and of scans, and for sync stores a crash and reopen. *)

open Evendb_util
open Evendb_storage
open Evendb_core
open Evendb_ycsb

(* Sizes. The munk budget is the bench harness's RAM budget (4 MiB);
   the block cache is half of it, not the 32 MiB default, which would
   hold a whole 16 MiB dataset and leave no workload larger than the
   caches. The row cache keeps the paper's 2:1 munk-to-row ratio. *)
let mib = 1024 * 1024
let ram_budget = 4 * mib
let block_cache_bytes = ram_budget / 2
let value_bytes = 800
let config_factor = 64

let evendb_config ~traced ~sync =
  let base = Config.scaled ~factor:config_factor () in
  {
    base with
    Config.munk_cache_capacity = max 2 (ram_budget / base.Config.max_chunk_bytes);
    row_cache_capacity_per_table = max 64 (ram_budget / 2 / 3 / (value_bytes + 14));
    block_cache_bytes;
    collect_read_stats = traced;
    persistence = (if sync then Config.Sync else Config.Async);
  }

type kind = Evendb | Sharded of int | Lsm | Flsm

(* The engine, and for a single EvenDB store its Db: [Read_stats], which
   a traced run reads, is reachable only through the Db, and [Engine.t]
   does not expose it. So the single store is [Engine.evendb] spelled
   out with the handle kept; the others are [Engine]'s own. *)
type store = { engine : Engine.t; dbs : Db.t list }

let open_store kind ~traced ~sync env =
  let config = evendb_config ~traced ~sync in
  match kind with
  | Evendb ->
    let db = Db.open_ ~config env in
    let engine =
      {
        Engine.name = "EvenDB";
        put = Db.put db;
        get = Db.get db;
        delete = Db.delete db;
        scan = (fun ~low ~high ~limit -> Db.scan db ~limit ~low ~high ());
        maintain = (fun () -> Db.maintain db);
        close = (fun () -> Db.close db);
        env;
        logical_bytes = (fun () -> Db.logical_bytes_written db);
        metrics = (fun () -> Db.metrics_dump db `Json);
        attr = (fun () -> Db.attr db);
        absorbed_failures = (fun () -> 0);
      }
    in
    { engine; dbs = [ db ] }
  | Sharded shards -> { engine = Engine.evendb_sharded ~config ~shards env; dbs = [] }
  | Lsm ->
    let scaled = Evendb_lsm.Lsm.Config.scaled ~factor:config_factor () in
    { engine = Engine.lsm ~config:{ scaled with block_cache_bytes } env; dbs = [] }
  | Flsm ->
    let scaled = Evendb_flsm.Flsm.Config.scaled ~factor:config_factor () in
    { engine = Engine.flsm ~config:{ scaled with block_cache_bytes } env; dbs = [] }

type spec = {
  name : string;
  kind : kind;
  sync : bool;
  dist : Workload.dist;
  items : int;  (** loaded items; 0 = ingest into an empty store *)
  mix : Runner.mix;
  clients : int;
  episode_ops : int;
  inputs : string;  (** {!inputs_digest} at {!reference_seed} *)
}

let items_of_bytes b = b / (value_bytes + 14)
let large = items_of_bytes (16 * mib)
let composite = Workload.Zipf_composite 0.99

(* Why each workload is here is in BENCHMARK.json and README.md. The
   16 MiB datasets are four times the munk budget; sync.sharded's
   1 MiB fits every cache; the baselines' 4 MiB equals it. Episodes
   last 0.8 to 4 seconds here. *)
let all =
  [
    {
      name = "ycsb_a.composite";
      kind = Evendb;
      sync = false;
      dist = composite;
      items = large;
      mix = Runner.workload_a;
      clients = 1;
      episode_ops = 32_000;
      inputs = "2b6b298b";
    };
    {
      name = "ycsb_a.simple";
      kind = Evendb;
      sync = false;
      dist = Workload.Zipf_simple 0.99;
      items = large;
      mix = Runner.workload_a;
      clients = 1;
      episode_ops = 20_000;
      inputs = "d4cb35f0";
    };
    {
      name = "ycsb_e.composite";
      kind = Evendb;
      sync = false;
      dist = composite;
      items = large;
      mix = Runner.workload_e 100;
      clients = 1;
      episode_ops = 2_000;
      inputs = "118f6b5c";
    };
    {
      name = "ingest.uniform";
      kind = Evendb;
      sync = false;
      dist = Workload.Uniform;
      items = 0;
      mix = [ (Runner.Insert, 100) ];
      clients = 1;
      episode_ops = 10_000;
      inputs = "bcad3a86";
    };
    {
      name = "sync.sharded";
      kind = Sharded 2;
      sync = true;
      dist = composite;
      items = items_of_bytes mib;
      mix = Runner.workload_p;
      clients = 2;
      episode_ops = 32_000;
      inputs = "1580b6b2";
    };
    {
      name = "lsm.ycsb_a";
      kind = Lsm;
      sync = false;
      dist = composite;
      items = items_of_bytes ram_budget;
      mix = Runner.workload_a;
      clients = 1;
      episode_ops = 8_000;
      inputs = "8b0a735e";
    };
    {
      name = "flsm.ycsb_a";
      kind = Flsm;
      sync = false;
      dist = composite;
      items = items_of_bytes ram_budget;
      mix = Runner.workload_a;
      clients = 1;
      episode_ops = 12_000;
      inputs = "21f5d871";
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let setups = 3
let min_episodes = 3
let warmup_ops = 2000

let shared spec ~seed =
  Workload.create_shared ~value_bytes spec.dist ~items:(max 1 spec.items) ~seed

(* Load the store. Returns the value every key holds afterwards. *)
let load spec (engine : Engine.t) shared =
  let base = Hashtbl.create 4096 in
  let put k v =
    engine.Engine.put k v;
    Hashtbl.replace base k v
  in
  if spec.items > 0 then Runner.load { engine with Engine.put } shared
  else begin
    let w = Workload.thread shared ~id:997 in
    for _ = 1 to warmup_ops do
      put (Workload.insert_key w) (Workload.make_value w)
    done
  end;
  base

(* 2000 gets of loaded keys, each checked against [base]; an ingest
   workload has none. Returns the wrong answers. *)
let warm_up spec (engine : Engine.t) shared base =
  if spec.items = 0 then []
  else begin
    let r = Workload.thread shared ~id:998 in
    List.filter_map
      (fun _ ->
        let k = Workload.sample_key r in
        if engine.Engine.get k = Hashtbl.find_opt base k then None
        else Some (Printf.sprintf "warm-up get %s: wrong value" k))
      (List.init warmup_ops Fun.id)
  end

(* The workload is defined by what lib/ycsb generates, which lies outside
   this benchmark. To pin it, a run first replays one set-up and one
   episode at the reference seed against an engine that only digests
   what it is given, and compares the digest with [spec.inputs]: a
   change to the key, value or op generators then stops the benchmark
   instead of silently moving every workload. Such a change has to
   update the pinned digests, which makes it a change to the benchmark.
   The episode is digested with one client, so that it is
   deterministic. *)
let reference_seed = 42

let inputs_digest spec =
  let crc = ref 0l in
  let feed s = crc := Crc32c.string ~init:!crc s in
  let engine =
    {
      Engine.name = "inputs";
      put = (fun k v -> List.iter feed [ "put"; k; v ]);
      get = (fun k -> List.iter feed [ "get"; k ]; None);
      delete = (fun k -> List.iter feed [ "delete"; k ]);
      scan = (fun ~low ~high ~limit -> List.iter feed [ "scan"; low; high; string_of_int limit ]; []);
      maintain = ignore;
      close = ignore;
      env = Env.memory ();
      logical_bytes = (fun () -> 0);
      metrics = (fun () -> "{}");
      attr = (fun () -> invalid_arg "Workloads.inputs_digest: no attribution");
      absorbed_failures = (fun () -> 0);
    }
  in
  let sh = shared spec ~seed:reference_seed in
  let base = load spec engine sh in
  ignore (warm_up spec engine sh base);
  ignore (Runner.run engine (shared spec ~seed:reference_seed) spec.mix ~ops:(spec.episode_ops / spec.clients) ~threads:1);
  Printf.sprintf "%08lx" !crc

type result = {
  e2e : (string * float) list;
  layer_sample : Layers.sample;  (** differenced around every episode of a traced run *)
  rounds : (Runner.result * bool) list;  (** every episode, and whether the middleware was on *)
  attempted : int;
  failed : int;
  wrong : string list;
}

let now_s () = float_of_int (Evendb_obs.Obs.now_ns ()) /. 1e9

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Sync stores must survive a crash with every acked put: crash the
   environment (dropping unsynced bytes), reopen and check again. *)
let crash_check spec (engine : Engine.t) shadow =
  Env.crash engine.Engine.env;
  let reopened = open_store spec.kind ~traced:false ~sync:spec.sync engine.Engine.env in
  let wrong = List.map (fun s -> "after crash: " ^ s) (Shadow.verify reopened.engine shadow) in
  reopened.engine.Engine.close ();
  wrong

let space_amp_now (r : Shadow.recorder) =
  float_of_int (Env.space_used r.engine.Engine.env) /. float_of_int (max 1 (r.live_bytes ()))

(* The store's files grow and shrink between checkpoints, flushes and
   compactions, so space amplification at the end of an episode catches
   one phase of that cycle, which the seed picks. It is sampled every
   256th put instead, as the median of the samples and the end. The
   sample runs inside that put's timed interval. *)
let probing (r : Shadow.recorder) =
  let puts = Atomic.make 0 and lock = Mutex.create () and samples = ref [] in
  let put k v =
    r.engine.Engine.put k v;
    if Atomic.fetch_and_add puts 1 land 255 = 255 then begin
      let x = space_amp_now r in
      Mutex.protect lock (fun () -> samples := x :: !samples)
    end
  in
  ({ r.engine with Engine.put }, fun () -> Mutex.protect lock (fun () -> !samples))

type episode = {
  r : Runner.result;
  traced_round : bool;  (** the timing middleware was on *)
  written : int;
  logical : int;
}

let run spec ~seed ~seconds ~traced ~smoke =
  let t_start = now_s () in
  let episode_ops = if smoke then max 50 (spec.episode_ops / 20) else spec.episode_ops in
  let tm = if traced then Some (Layers.timing ()) else None in
  let wrong = ref [] in
  let n_setups = if smoke then 1 else setups in
  let setup_times = ref [] and loaded = ref None in
  let timed_setup () =
    let t0 = now_s () in
    let store = open_store spec.kind ~traced ~sync:spec.sync (Layers.env tm (Backend.memory ())) in
    let sh = shared spec ~seed in
    let base = load spec store.engine sh in
    let w = warm_up spec store.engine sh base in
    setup_times := (now_s () -. t0) :: !setup_times;
    wrong := !wrong @ w;
    let env = store.engine.Engine.env in
    store.engine.Engine.close ();
    if !loaded = None then loaded := Some (List.map (fun f -> (f, Env.read_all env f)) (Env.list_files env), base)
  in
  let acc : Layers.sample = Hashtbl.create 256 in
  let episodes = ref [] and n = ref 0 and measured_s = ref 0.0 in
  let space_amp = ref 0.0 in
  let finished () = !measured_s >= seconds && !n >= min_episodes && List.length !setup_times = n_setups in
  while not (finished ()) do
    (* The set-ups are spread over the measured time, so that a spell in
       which the machine runs slow rarely catches most of them. *)
    let done_ = List.length !setup_times in
    if done_ < n_setups && !measured_s *. float_of_int n_setups >= float_of_int done_ *. seconds then
      timed_setup ();
    let files, base = Option.get !loaded in
    let env = Layers.env tm (Backend.memory_of_files files) in
    let store = open_store spec.kind ~traced ~sync:spec.sync env in
    let sh = shared spec ~seed in
    wrong := !wrong @ warm_up spec store.engine sh base;
    let rec_ = Shadow.recording ~base store.engine in
    let engine, space_amps = probing rec_ in
    (* Traced runs alternate the middleware on and off between
       episodes: the off ones give the latencies and the tracing
       overhead. *)
    let traced_round = traced && !n mod 2 = 0 in
    Option.iter (fun tm -> Atomic.set tm.Layers.on traced_round) tm;
    (* Every episode starts from a compacted heap, whatever garbage the
       set-ups and earlier episodes left. *)
    Gc.compact ();
    let before = if traced then Some (Layers.sample store.engine store.dbs tm) else None in
    let io0 = Io_stats.snapshot (Env.stats env) and lb0 = engine.Engine.logical_bytes () in
    let r = Runner.run engine sh spec.mix ~ops:episode_ops ~threads:spec.clients in
    let io1 = Io_stats.snapshot (Env.stats env) and lb1 = engine.Engine.logical_bytes () in
    Option.iter
      (fun before -> Layers.accumulate acc ~before ~after:(Layers.sample store.engine store.dbs tm))
      before;
    let shadow = { Shadow.base; acked = rec_.tables () } in
    if !n = 0 then space_amp := median (space_amp_now rec_ :: space_amps ());
    episodes :=
      {
        r;
        traced_round;
        written = io1.Io_stats.bytes_written - io0.Io_stats.bytes_written;
        logical = lb1 - lb0;
      }
      :: !episodes;
    incr n;
    measured_s := !measured_s +. r.Runner.seconds;
    if not (finished ()) then engine.Engine.close ()
    else begin
      wrong := !wrong @ Shadow.verify engine shadow;
      if spec.sync then wrong := !wrong @ crash_check spec engine shadow else engine.Engine.close ()
    end
  done;
  let episodes = List.rev !episodes and setup_times = !setup_times in
  Printf.eprintf "%s: %d set-ups %.1f s, %d episodes %.1f s measured (%s ms), %.1f s in all\n%!" spec.name
    (List.length setup_times)
    (List.fold_left ( +. ) 0.0 setup_times)
    !n !measured_s
    (String.concat " " (List.map (fun e -> Printf.sprintf "%.0f" (e.r.Runner.seconds *. 1e3)) episodes))
    (now_s () -. t_start);
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 episodes in
  let first = List.hd episodes in
  let fastest =
    List.fold_left (fun acc e -> if e.traced_round then acc else Float.max acc e.r.Runner.kops) 0.0 episodes
  in
  {
    e2e =
      [
        ("throughput_kops", fastest);
        ("write_amp", float_of_int first.written /. float_of_int (max 1 first.logical));
        ("space_amp", !space_amp);
        ("setup_s", median setup_times);
      ];
    layer_sample = acc;
    rounds = List.map (fun e -> (e.r, e.traced_round)) episodes;
    attempted = sum (fun e -> e.r.Runner.ops);
    failed = sum (fun e -> e.r.Runner.failed_ops);
    wrong = !wrong;
  }
