open Evendb_util

type op =
  | Update
  | Insert
  | Read
  | Scan of int
  | Read_modify_write

type mix = (op * int) list

let workload_p = [ (Update, 100) ]
let workload_a = [ (Update, 50); (Read, 50) ]
let workload_b = [ (Update, 5); (Read, 95) ]
let workload_c = [ (Read, 100) ]
let workload_d = [ (Insert, 5); (Read, 95) ]
let workload_e rows = [ (Insert, 5); (Scan rows, 95) ]
let workload_f = [ (Read_modify_write, 100) ]

type result = {
  ops : int;
  seconds : float;
  kops : float;
  put_hist : Histogram.t;
  get_hist : Histogram.t;
  scan_hist : Histogram.t;
  windows : (float * float) list;
  failed_ops : int;
}

let now () = Unix.gettimeofday ()

let load (engine : Engine.t) shared =
  let w = Workload.thread shared ~id:997 in
  (* Under an injected fault profile individual load puts may fail with
     a typed storage error; the key is simply absent, which the
     workloads tolerate (reads of missing keys are misses). *)
  List.iter
    (fun key ->
      try engine.Engine.put key (Workload.make_value w)
      with Evendb_storage.Env.Io_error _ -> ())
    (Workload.load_keys shared);
  try engine.Engine.maintain () with Evendb_storage.Env.Io_error _ -> ()

(* Expand the mix into a 100-slot lookup table. *)
let mix_table mix =
  let total = List.fold_left (fun acc (_, p) -> acc + p) 0 mix in
  if total <> 100 then invalid_arg "Runner: mix must sum to 100";
  let table = Array.make 100 Read in
  let pos = ref 0 in
  List.iter
    (fun (op, pct) ->
      for _ = 1 to pct do
        table.(!pos) <- op;
        incr pos
      done)
    mix;
  table

let max_windows = 65536

let run ?(window_seconds = 1.0) ?(warmup_ops = 0) (engine : Engine.t) shared mix ~ops ~threads =
  if threads < 1 then invalid_arg "Runner.run: threads < 1";
  let table = mix_table mix in
  let t0 = ref 0.0 in
  (* Per-worker state: counts per window (grown on demand; a short run
     touches one) and the worker's own start and end times, so that
     spawning and joining its domain is not part of the measured span. *)
  let windows = Array.init threads (fun _ -> ref [||]) in
  let spans = Array.make threads (0.0, 0.0) in
  let do_op w rng put_hist get_hist scan_hist failed window_ops op =
    let t_start = now () in
    (try
       match op with
    | Update -> engine.Engine.put (Workload.sample_key w) (Workload.make_value w)
    | Insert -> engine.Engine.put (Workload.insert_key w) (Workload.make_value w)
    | Read -> ignore (engine.Engine.get (Workload.sample_key w))
    | Scan rows ->
      ignore
        (engine.Engine.scan ~low:(Workload.scan_start w) ~high:Workload.key_space_high
           ~limit:rows)
    | Read_modify_write ->
      let key = Workload.sample_key w in
      ignore (engine.Engine.get key);
      engine.Engine.put key (Workload.make_value w)
     with Evendb_storage.Env.Io_error _ ->
       (* Injected fault: the op failed cleanly; count it and keep
          driving load. Its latency still lands in the histogram —
          failure paths are part of the measured distribution. *)
       incr failed);
    let elapsed_ns = int_of_float ((now () -. t_start) *. 1e9) in
    (match op with
    | Update | Insert -> Histogram.record put_hist elapsed_ns
    | Read -> Histogram.record get_hist elapsed_ns
    | Scan _ -> Histogram.record scan_hist elapsed_ns
    | Read_modify_write ->
      Histogram.record get_hist elapsed_ns;
      Histogram.record put_hist elapsed_ns);
    ignore rng;
    let widx = int_of_float ((now () -. !t0) /. window_seconds) in
    if widx >= 0 && widx < max_windows then begin
      let n = Array.length !window_ops in
      if widx >= n then
        window_ops := Array.append !window_ops (Array.make (max (widx + 1 - n) n) 0);
      !window_ops.(widx) <- !window_ops.(widx) + 1
    end
  in
  let worker ~slot id n_ops =
    let w = Workload.thread shared ~id in
    let rng = Rng.create (1000 + id) in
    let put_hist = Histogram.create ()
    and get_hist = Histogram.create ()
    and scan_hist = Histogram.create () in
    let failed = ref 0 in
    let start = now () in
    for _ = 1 to n_ops do
      do_op w rng put_hist get_hist scan_hist failed windows.(slot) table.(Rng.int rng 100)
    done;
    spans.(slot) <- (start, now ());
    (put_hist, get_hist, scan_hist, !failed)
  in
  (* Warmup (cache priming, §5.3): run outside the measured span. *)
  if warmup_ops > 0 then begin
    t0 := now ();
    ignore (worker ~slot:0 9999 warmup_ops)
  end;
  let per_thread = ops / threads in
  (* A fault-tolerant engine wrapper (bench harness with a fault
     profile) absorbs failed ops before our handler sees them; fold its
     delta over the measured span into the same count. *)
  let absorbed0 = engine.Engine.absorbed_failures () in
  t0 := now ();
  let domains =
    List.init threads (fun id -> Domain.spawn (fun () -> worker ~slot:id id per_thread))
  in
  let results = List.map Domain.join domains in
  let seconds =
    Array.fold_left (fun acc (_, stop) -> Float.max acc stop) 0.0 spans
    -. Array.fold_left (fun acc (start, _) -> Float.min acc start) infinity spans
  in
  let put_hist = Histogram.create ()
  and get_hist = Histogram.create ()
  and scan_hist = Histogram.create () in
  let failed_ops = ref 0 in
  List.iter
    (fun (p, g, s, f) ->
      Histogram.merge_into ~src:p ~dst:put_hist;
      Histogram.merge_into ~src:g ~dst:get_hist;
      Histogram.merge_into ~src:s ~dst:scan_hist;
      failed_ops := !failed_ops + f)
    results;
  let total_ops = per_thread * threads in
  let windows =
    let acc = ref [] in
    let last = int_of_float (seconds /. window_seconds) in
    for i = min last (max_windows - 1) downto 0 do
      let n =
        Array.fold_left (fun acc w -> if i < Array.length !w then acc + !w.(i) else acc) 0 windows
      in
      acc := ((float_of_int (i + 1) *. window_seconds), float_of_int n /. window_seconds /. 1000.0) :: !acc
    done;
    !acc
  in
  {
    ops = total_ops;
    seconds;
    kops = (if seconds > 0.0 then float_of_int total_ops /. seconds /. 1000.0 else 0.0);
    put_hist;
    get_hist;
    scan_hist;
    windows;
    failed_ops = !failed_ops + (engine.Engine.absorbed_failures () - absorbed0);
  }

let ab_pair ~pair segment =
  if pair mod 2 = 0 then
    let on = segment ~on:true in
    (on, segment ~on:false)
  else
    let off = segment ~on:false in
    (segment ~on:true, off)

type verdict = { median : float; on_wins : int; off_wins : int; ratios : float list }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Runner.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let verdict figures =
  let ratios = List.map (fun (on, off) -> on /. off) figures in
  let count p = List.length (List.filter p figures) in
  {
    median = median ratios;
    on_wins = count (fun (on, off) -> on > off);
    off_wins = count (fun (on, off) -> on < off);
    ratios;
  }
