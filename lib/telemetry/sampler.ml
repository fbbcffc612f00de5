module Obs = Evendb_obs.Obs

type win = {
  w_count : int;
  w_mean_ns : float;
  w_p50_ns : int;
  w_p95_ns : int;
  w_p99_ns : int;
  w_max_ns : int;
}

type sample = {
  s_seq : int;
  s_wall_ns : int;
  s_dur_ns : int;
  s_deltas : (string * int) list;
  s_gauges : (string * int) list;
  s_timers : (string * win) list;
}

(* Per-timer window baseline: lifetime count, lifetime mean, cumulative
   buckets at the previous tick. *)
type timer_prev = { tp_count : int; tp_mean : float; tp_buckets : (int * int) list }

type t = {
  sources : (string * Obs.t) list;
  ring : int;
  journal : Journal.t option;
  extra : (unit -> (string * int) list) option;
  mutex : Mutex.t;
  prev_counters : (string, int) Hashtbl.t;
  prev_timers : (string, timer_prev) Hashtbl.t;
  mutable seq : int;
  mutable last_tick_ns : int;  (** monotonic *)
  mutable ring_buf : sample list;  (** newest first, length <= ring *)
  mutable ring_len : int;
  journal_errors : int Atomic.t;
  stop_flag : bool Atomic.t;
  mutable domain : unit Domain.t option;
}

let create ?(ring = 512) ?journal ?extra ~sources () =
  if ring < 1 then invalid_arg "Sampler.create: ring must be >= 1";
  {
    sources;
    ring;
    journal;
    extra;
    mutex = Mutex.create ();
    prev_counters = Hashtbl.create 64;
    prev_timers = Hashtbl.create 16;
    seq = 0;
    last_tick_ns = Obs.now_ns ();
    ring_buf = [];
    ring_len = 0;
    journal_errors = Atomic.make 0;
    stop_flag = Atomic.make false;
    domain = None;
  }

(* Windowed percentile over delta buckets, matching the Histogram
   convention: rank ceil(p/100 * total) (at least 1) over ascending
   cumulative counts; the answer is the bucket's upper bound. *)
let delta_percentile buckets total p =
  let target = max 1 (int_of_float (ceil (p /. 100. *. float_of_int total))) in
  let rec go acc = function
    | [] -> (match List.rev buckets with (ub, _) :: _ -> ub | [] -> 0)
    | (ub, c) :: rest ->
      let acc = acc + c in
      if acc >= target then ub else go acc rest
  in
  go 0 buckets

let window_of_timer prev (s : Obs.timer_summary) =
  let dc = s.Obs.t_count - prev.tp_count in
  if dc <= 0 then None
  else begin
    (* Cumulative bucket counts are monotone, so the window's
       distribution is the per-bucket difference. [t_buckets] lists
       only non-empty buckets; a bucket absent from [prev] was empty
       then. *)
    let prev_count ub =
      match List.assoc_opt ub prev.tp_buckets with Some c -> c | None -> 0
    in
    let delta =
      List.filter_map
        (fun (ub, c) ->
          let d = c - prev_count ub in
          if d > 0 then Some (ub, d) else None)
        s.Obs.t_buckets
    in
    let dtotal = List.fold_left (fun a (_, c) -> a + c) 0 delta in
    if dtotal = 0 then None
    else
      let mean =
        (s.Obs.t_mean_ns *. float_of_int s.Obs.t_count
        -. prev.tp_mean *. float_of_int prev.tp_count)
        /. float_of_int dc
      in
      let max_ns =
        match List.rev delta with (ub, _) :: _ -> ub | [] -> 0
      in
      Some
        {
          w_count = dc;
          w_mean_ns = mean;
          w_p50_ns = delta_percentile delta dtotal 50.;
          w_p95_ns = delta_percentile delta dtotal 95.;
          w_p99_ns = delta_percentile delta dtotal 99.;
          w_max_ns = max_ns;
        }
  end

let sample_to_json s =
  let b = Buffer.create 512 in
  let obj items render buf =
    Obs.add_json_obj buf (List.map (fun (name, v) -> (name, render v)) items)
  in
  Obs.add_json_obj b
    [
      ("seq", Obs.jint s.s_seq);
      ("wall_ns", Obs.jint s.s_wall_ns);
      ("dur_ns", Obs.jint s.s_dur_ns);
      ("deltas", obj s.s_deltas Obs.jint);
      ("gauges", obj s.s_gauges Obs.jint);
      ( "timers",
        obj s.s_timers (fun w buf ->
            Obs.add_json_obj buf
              [
                ("count", Obs.jint w.w_count);
                ("mean_ns", Obs.jfloat w.w_mean_ns);
                ("p50_ns", Obs.jint w.w_p50_ns);
                ("p95_ns", Obs.jint w.w_p95_ns);
                ("p99_ns", Obs.jint w.w_p99_ns);
                ("max_ns", Obs.jint w.w_max_ns);
              ]) );
    ];
  Buffer.contents b

let tick_locked t =
  let now = Obs.now_ns () in
  let dur = now - t.last_tick_ns in
  t.last_tick_ns <- now;
  let deltas = ref [] in
  let gauges = ref [] in
  let timers = ref [] in
  List.iter
    (fun (prefix, obs) ->
      let snap = Obs.snapshot obs in
      List.iter
        (fun (name, value) ->
          let name = prefix ^ name in
          match value with
          | Obs.Counter v ->
            let prev =
              match Hashtbl.find_opt t.prev_counters name with
              | Some p -> p
              | None -> 0
            in
            Hashtbl.replace t.prev_counters name v;
            if v - prev <> 0 then deltas := (name, v - prev) :: !deltas
          | Obs.Gauge v -> gauges := (name, v) :: !gauges
          | Obs.Timer s ->
            let prev =
              match Hashtbl.find_opt t.prev_timers name with
              | Some p -> p
              | None -> { tp_count = 0; tp_mean = 0.; tp_buckets = [] }
            in
            Hashtbl.replace t.prev_timers name
              {
                tp_count = s.Obs.t_count;
                tp_mean = s.Obs.t_mean_ns;
                tp_buckets = s.Obs.t_buckets;
              };
            (match window_of_timer prev s with
            | Some w -> timers := (name, w) :: !timers
            | None -> ()))
        snap.Obs.metrics)
    t.sources;
  (match t.extra with
  | Some f -> ( try gauges := List.rev_append (f ()) !gauges with _ -> ())
  | None -> ());
  let by_name (a, _) (b, _) = compare (a : string) b in
  let s =
    {
      s_seq = t.seq;
      s_wall_ns = Obs.to_wall_ns now;
      s_dur_ns = dur;
      s_deltas = List.sort by_name !deltas;
      s_gauges = List.sort by_name !gauges;
      s_timers = List.sort by_name !timers;
    }
  in
  t.seq <- t.seq + 1;
  t.ring_buf <- s :: t.ring_buf;
  t.ring_len <- t.ring_len + 1;
  if t.ring_len > t.ring then begin
    t.ring_buf <- List.filteri (fun i _ -> i < t.ring) t.ring_buf;
    t.ring_len <- t.ring
  end;
  (match t.journal with
  | Some j -> (
    try Journal.append j (sample_to_json s)
    with _ -> Atomic.incr t.journal_errors)
  | None -> ());
  s

let tick t = Mutex.protect t.mutex (fun () -> tick_locked t)

let samples ?last t =
  Mutex.protect t.mutex (fun () ->
      let newest_first =
        match last with
        | Some n -> List.filteri (fun i _ -> i < n) t.ring_buf
        | None -> t.ring_buf
      in
      List.rev newest_first)

let journal_errors t = Atomic.get t.journal_errors

let start t ~interval_ns =
  if interval_ns < 1 then invalid_arg "Sampler.start: interval_ns must be >= 1";
  Mutex.protect t.mutex (fun () ->
      match t.domain with
      | Some _ -> ()
      | None ->
        Atomic.set t.stop_flag false;
        let d =
          Domain.spawn (fun () ->
              let max_nap = 0.050 in
              let rec sleep_until deadline =
                if not (Atomic.get t.stop_flag) then begin
                  let left =
                    float_of_int (deadline - Obs.now_ns ()) /. 1e9
                  in
                  if left > 0. then begin
                    Unix.sleepf (Float.min left max_nap);
                    sleep_until deadline
                  end
                end
              in
              let rec loop () =
                if not (Atomic.get t.stop_flag) then begin
                  sleep_until (Obs.now_ns () + interval_ns);
                  if not (Atomic.get t.stop_flag) then begin
                    (try ignore (tick t) with _ -> ());
                    loop ()
                  end
                end
              in
              loop ())
        in
        t.domain <- Some d)

let stop t =
  let d =
    Mutex.protect t.mutex (fun () ->
        let d = t.domain in
        t.domain <- None;
        Atomic.set t.stop_flag true;
        d)
  in
  match d with Some d -> Domain.join d | None -> ()

let running t = Mutex.protect t.mutex (fun () -> t.domain <> None)

let to_json ?last t =
  let ss = samples ?last t in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"samples\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (sample_to_json s))
    ss;
  Buffer.add_string b "]}";
  Buffer.contents b

(* {2 Parsing (client side)} *)

let sample_of_value (j : Tiny_json.t) : sample option =
  let open Tiny_json in
  let int_field key ~default =
    match member key j with
    | Some v -> ( match to_int v with Some i -> i | None -> default)
    | None -> default
  in
  let assoc_ints key =
    match member key j with
    | Some (Obj fields) ->
      List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (to_int v)) fields
    | _ -> []
  in
  let timers =
    match member "timers" j with
    | Some (Obj fields) ->
      List.filter_map
        (fun (k, tv) ->
          let fi key ~default =
            match member key tv with
            | Some v -> ( match to_int v with Some i -> i | None -> default)
            | None -> default
          in
          let ff key =
            match member key tv with
            | Some v -> ( match to_float v with Some f -> f | None -> 0.)
            | None -> 0.
          in
          match member "count" tv with
          | Some _ ->
            Some
              ( k,
                {
                  w_count = fi "count" ~default:0;
                  w_mean_ns = ff "mean_ns";
                  w_p50_ns = fi "p50_ns" ~default:0;
                  w_p95_ns = fi "p95_ns" ~default:0;
                  w_p99_ns = fi "p99_ns" ~default:0;
                  w_max_ns = fi "max_ns" ~default:0;
                } )
          | None -> None)
        fields
    | _ -> []
  in
  match member "seq" j with
  | None -> None
  | Some _ ->
    Some
      {
        s_seq = int_field "seq" ~default:0;
        s_wall_ns = int_field "wall_ns" ~default:0;
        s_dur_ns = int_field "dur_ns" ~default:0;
        s_deltas = assoc_ints "deltas";
        s_gauges = assoc_ints "gauges";
        s_timers = timers;
      }

let samples_of_json body =
  let j = Tiny_json.parse body in
  match Tiny_json.member "samples" j with
  | Some (Tiny_json.Arr items) -> List.filter_map sample_of_value items
  | _ -> []

let sample_of_json record =
  match Tiny_json.parse_opt record with
  | Some j -> sample_of_value j
  | None -> None
