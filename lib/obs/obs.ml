open Evendb_util

(* Monotonic clock (CLOCK_MONOTONIC via bechamel's noalloc stub), so an
   NTP step can never produce a negative or absurd duration. The
   wall-clock epoch below maps monotonic timestamps back to wall-clock
   time solely for trace export, where absolute timestamps matter. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let epoch_mono_ns = now_ns ()
let epoch_wall_ns = int_of_float (Unix.gettimeofday () *. 1e9)
let to_wall_ns ns = ns - epoch_mono_ns + epoch_wall_ns

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)

module Counter = struct
  type t = int Atomic.t

  let make () : t = Atomic.make 0
  let incr t = ignore (Atomic.fetch_and_add t 1)
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get t = Atomic.get t
  let reset t = Atomic.set t 0
end

module Gauge = struct
  type t = int Atomic.t

  let make () : t = Atomic.make 0
  let set t v = Atomic.set t v
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get t = Atomic.get t
  let reset t = Atomic.set t 0
end

(* One histogram per domain shard: the op timers are recorded by every
   client domain on every op, and one shared lock would serialize them. *)
module Timer = struct
  type t = Histogram.t Per_domain.t

  let make () : t = Per_domain.create Histogram.create
  let record_ns t ns = Per_domain.update t Histogram.record ns

  let time t f =
    let t0 = now_ns () in
    match f () with
    | v ->
      record_ns t (now_ns () - t0);
      v
    | exception e ->
      record_ns t (now_ns () - t0);
      raise e

  let count t = Per_domain.fold t (fun n h -> n + Histogram.count h) 0

  (* (count, mean, [p50; p95; p99], min, max, buckets) of the shards
     merged. *)
  let summary t =
    let h = Histogram.create () in
    Per_domain.iter t (fun src -> Histogram.merge_into ~src ~dst:h);
    let ps = Histogram.percentiles h [ 50.0; 95.0; 99.0 ] in
    (Histogram.count h, Histogram.mean h, ps, Histogram.min_value h, Histogram.max_value h,
     Histogram.buckets h)

  let reset t = Per_domain.iter t Histogram.reset
end

(* ------------------------------------------------------------------ *)
(* Event tracing                                                       *)

module Trace = struct
  type event = {
    ev_name : string;
    ev_start_ns : int;
    ev_dur_ns : int;
    ev_tid : int;
    ev_attrs : (string * int) list;
  }

  type agg = {
    mutable agg_count : int;
    mutable agg_total_ns : int;
    agg_attrs : (string, int) Hashtbl.t;
  }

  type t = {
    mutex : Mutex.t;
    ring : event option array;
    mutable head : int; (* next write position *)
    aggs : (string, agg) Hashtbl.t;
  }

  type span = {
    sp_trace : t;
    sp_name : string;
    sp_start_ns : int;
    sp_tid : int;
    sp_mutex : Mutex.t;
    mutable sp_attrs : (string * int) list;
  }

  type span_stat = {
    span_name : string;
    span_count : int;
    span_total_ns : int;
    span_attr_totals : (string * int) list;
  }

  let create ?(capacity = 256) () =
    if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity <= 0";
    { mutex = Mutex.create (); ring = Array.make capacity None; head = 0; aggs = Hashtbl.create 16 }

  let agg_of_locked t name =
    match Hashtbl.find_opt t.aggs name with
    | Some a -> a
    | None ->
      let a = { agg_count = 0; agg_total_ns = 0; agg_attrs = Hashtbl.create 4 } in
      Hashtbl.replace t.aggs name a;
      a

  let declare t name =
    Mutex.lock t.mutex;
    ignore (agg_of_locked t name);
    Mutex.unlock t.mutex

  let add_attr span key v =
    Mutex.lock span.sp_mutex;
    span.sp_attrs <-
      (match List.assoc_opt key span.sp_attrs with
      | Some prev -> (key, prev + v) :: List.remove_assoc key span.sp_attrs
      | None -> (key, v) :: span.sp_attrs);
    Mutex.unlock span.sp_mutex

  let close_span span =
    let dur = now_ns () - span.sp_start_ns in
    let dur = if dur < 0 then 0 else dur in
    let t = span.sp_trace in
    Mutex.lock t.mutex;
    let a = agg_of_locked t span.sp_name in
    a.agg_count <- a.agg_count + 1;
    a.agg_total_ns <- a.agg_total_ns + dur;
    List.iter
      (fun (k, v) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt a.agg_attrs k) in
        Hashtbl.replace a.agg_attrs k (prev + v))
      span.sp_attrs;
    t.ring.(t.head) <-
      Some
        {
          ev_name = span.sp_name;
          ev_start_ns = span.sp_start_ns;
          ev_dur_ns = dur;
          ev_tid = span.sp_tid;
          ev_attrs = List.rev span.sp_attrs;
        };
    t.head <- (t.head + 1) mod Array.length t.ring;
    Mutex.unlock t.mutex

  let with_span t ?(attrs = []) ~name f =
    let span =
      {
        sp_trace = t;
        sp_name = name;
        sp_start_ns = now_ns ();
        sp_tid = Thread.id (Thread.self ());
        sp_mutex = Mutex.create ();
        sp_attrs = List.rev attrs;
      }
    in
    Fun.protect ~finally:(fun () -> close_span span) (fun () -> f span)

  let stats t =
    Mutex.lock t.mutex;
    let all =
      Hashtbl.fold
        (fun name a acc ->
          let attrs =
            List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.agg_attrs [])
          in
          {
            span_name = name;
            span_count = a.agg_count;
            span_total_ns = a.agg_total_ns;
            span_attr_totals = attrs;
          }
          :: acc)
        t.aggs []
    in
    Mutex.unlock t.mutex;
    List.sort (fun a b -> String.compare a.span_name b.span_name) all

  let recent t =
    Mutex.lock t.mutex;
    let n = Array.length t.ring in
    let acc = ref [] in
    for i = 0 to n - 1 do
      match t.ring.((t.head + i) mod n) with
      | Some e -> acc := e :: !acc
      | None -> ()
    done;
    Mutex.unlock t.mutex;
    List.rev !acc

  let reset t =
    Mutex.lock t.mutex;
    Array.fill t.ring 0 (Array.length t.ring) None;
    t.head <- 0;
    Hashtbl.iter
      (fun _ a ->
        a.agg_count <- 0;
        a.agg_total_ns <- 0;
        Hashtbl.reset a.agg_attrs)
      t.aggs;
    Mutex.unlock t.mutex
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_timer of Timer.t
  | I_probe of (unit -> int)

type t = {
  mutex : Mutex.t; (* protects registration only; bumps are lock-free *)
  instruments : (string, instrument) Hashtbl.t;
  tr : Trace.t;
}

let create ?trace_capacity () =
  {
    mutex = Mutex.create ();
    instruments = Hashtbl.create 64;
    tr = Trace.create ?capacity:trace_capacity ();
  }

let trace t = t.tr

let register t name make describe =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.instruments name with
    | Some i -> describe i
    | None ->
      let i, v = make () in
      Hashtbl.replace t.instruments name i;
      Some v
  in
  Mutex.unlock t.mutex;
  match r with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Obs: %S already registered with another type" name)

let counter t name =
  register t name
    (fun () ->
      let c = Counter.make () in
      (I_counter c, c))
    (function I_counter c -> Some c | _ -> None)

let gauge t name =
  register t name
    (fun () ->
      let g = Gauge.make () in
      (I_gauge g, g))
    (function I_gauge g -> Some g | _ -> None)

let timer t name =
  register t name
    (fun () ->
      let tm = Timer.make () in
      (I_timer tm, tm))
    (function I_timer tm -> Some tm | _ -> None)

let probe t name f =
  Mutex.lock t.mutex;
  Hashtbl.replace t.instruments name (I_probe f);
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type timer_summary = {
  t_count : int;
  t_mean_ns : float;
  t_p50_ns : int;
  t_p95_ns : int;
  t_p99_ns : int;
  t_min_ns : int;
  t_max_ns : int;
  t_buckets : (int * int) list;
}

type value = Counter of int | Gauge of int | Timer of timer_summary

type snapshot = {
  metrics : (string * value) list;
  spans : Trace.span_stat list;
}

let snapshot t : snapshot =
  let instruments =
    Mutex.lock t.mutex;
    let l = Hashtbl.fold (fun name i acc -> (name, i) :: acc) t.instruments [] in
    Mutex.unlock t.mutex;
    l
  in
  let metrics =
    List.map
      (fun (name, i) ->
        let v =
          match i with
          | I_counter c -> Counter (Counter.get c)
          | I_gauge g -> Gauge (Gauge.get g)
          | I_probe f -> Gauge (try f () with _ -> 0)
          | I_timer tm ->
            let n, mean, ps, mn, mx, buckets = Timer.summary tm in
            let p50, p95, p99 =
              match ps with [ a; b; c ] -> (a, b, c) | _ -> (0, 0, 0)
            in
            Timer
              {
                t_count = n;
                t_mean_ns = mean;
                t_p50_ns = p50;
                t_p95_ns = p95;
                t_p99_ns = p99;
                t_min_ns = mn;
                t_max_ns = mx;
                t_buckets = buckets;
              }
        in
        (name, v))
      instruments
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { metrics; spans = Trace.stats t.tr }

let reset t =
  Mutex.lock t.mutex;
  Hashtbl.iter
    (fun _ i ->
      match i with
      | I_counter c -> Counter.reset c
      | I_gauge g -> Gauge.reset g
      | I_timer tm -> Timer.reset tm
      | I_probe _ -> ())
    t.instruments;
  Mutex.unlock t.mutex;
  Trace.reset t.tr

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_json_obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, render) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf (json_escape k);
      Buffer.add_string buf "\":";
      render buf)
    fields;
  Buffer.add_char buf '}'

let jint v buf = Buffer.add_string buf (string_of_int v)
let jfloat v buf = Buffer.add_string buf (Printf.sprintf "%.1f" v)

let jstr s buf =
  Buffer.add_char buf '"';
  Buffer.add_string buf (json_escape s);
  Buffer.add_char buf '"'

let jbuckets buckets buf =
  Buffer.add_char buf '[';
  List.iteri
    (fun i (ub, c) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "[%d,%d]" ub c))
    buckets;
  Buffer.add_char buf ']'

let to_json t =
  let s = snapshot t in
  let counters = List.filter_map (function n, Counter v -> Some (n, jint v) | _ -> None) s.metrics in
  let gauges = List.filter_map (function n, Gauge v -> Some (n, jint v) | _ -> None) s.metrics in
  let timers =
    List.filter_map
      (function
        | n, Timer tm ->
          Some
            ( n,
              fun buf ->
                add_json_obj buf
                  [
                    ("count", jint tm.t_count);
                    ("mean_ns", jfloat tm.t_mean_ns);
                    ("p50_ns", jint tm.t_p50_ns);
                    ("p95_ns", jint tm.t_p95_ns);
                    ("p99_ns", jint tm.t_p99_ns);
                    ("min_ns", jint tm.t_min_ns);
                    ("max_ns", jint tm.t_max_ns);
                    ("buckets", jbuckets tm.t_buckets);
                  ] )
        | _ -> None)
      s.metrics
  in
  let spans =
    List.map
      (fun (st : Trace.span_stat) ->
        ( st.Trace.span_name,
          fun buf ->
            add_json_obj buf
              [
                ("count", jint st.Trace.span_count);
                ("total_ns", jint st.Trace.span_total_ns);
                ( "attrs",
                  fun buf ->
                    add_json_obj buf
                      (List.map (fun (k, v) -> (k, jint v)) st.Trace.span_attr_totals) );
              ] ))
      s.spans
  in
  let buf = Buffer.create 1024 in
  add_json_obj buf
    [
      ("counters", fun buf -> add_json_obj buf counters);
      ("gauges", fun buf -> add_json_obj buf gauges);
      ("timers", fun buf -> add_json_obj buf timers);
      ("spans", fun buf -> add_json_obj buf spans);
    ];
  Buffer.contents buf

let sanitize name =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_') name

(* Label values may contain any UTF-8; the exposition format requires
   backslash, double-quote and newline to be escaped (metric and label
   NAMES stay sanitized — the charset there is restricted). *)
let prom_label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One exposition over any number of registries. Each metric name gets
   its # HELP / # TYPE pair exactly once (the format forbids repeats),
   followed by one sample per registry; a registry tagged [Some v]
   labels its samples [<label>="v"] — how a sharded store exports
   per-shard series without concatenating (invalid) documents. *)
let to_prometheus_parts ~label (parts : (string option * snapshot) list) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') fmt in
  (* Sample labels: the registry's tag plus any per-sample labels. *)
  let lbl who extra =
    let items =
      (match who with
      | None -> []
      | Some v -> [ Printf.sprintf "%s=\"%s\"" label (prom_label_escape v) ])
      @ extra
    in
    match items with [] -> "" | items -> "{" ^ String.concat "," items ^ "}"
  in
  (* Union of metric names in sorted order, each with its per-registry
     samples in [parts] order. *)
  let tbl : (string, (string option * value) list ref) Hashtbl.t = Hashtbl.create 64 in
  let names = ref [] in
  List.iter
    (fun (who, s) ->
      List.iter
        (fun (name, v) ->
          (match Hashtbl.find_opt tbl name with
          | Some r -> r := (who, v) :: !r
          | None ->
            Hashtbl.add tbl name (ref [ (who, v) ]);
            names := name :: !names))
        s.metrics)
    parts;
  (* Exposition-format discipline: every sample belongs to a family
     declared by HELP/TYPE, a summary family carries only its quantile
     samples plus [_sum]/[_count], and all samples of a family form one
     contiguous group. A timer therefore exports as three families —
     the summary, and [_min]/[_max] gauges (true observed extrema,
     which Prometheus summaries have no slot for). *)
  List.iter
    (fun name ->
      let samples = List.rev !(Hashtbl.find tbl name) in
      let m = "evendb_" ^ sanitize name in
      let each f = List.iter (fun (who, v) -> f who v) samples in
      match samples with
      | (_, Counter _) :: _ ->
        line "# HELP %s evendb counter %s" m (prom_label_escape name);
        line "# TYPE %s counter" m;
        each (fun who v -> match v with Counter c -> line "%s%s %d" m (lbl who []) c | _ -> ())
      | (_, Gauge _) :: _ ->
        line "# HELP %s evendb gauge %s" m (prom_label_escape name);
        line "# TYPE %s gauge" m;
        each (fun who v -> match v with Gauge g -> line "%s%s %d" m (lbl who []) g | _ -> ())
      | (_, Timer _) :: _ ->
        line "# HELP %s_ns evendb latency summary %s (nanoseconds)" m (prom_label_escape name);
        line "# TYPE %s_ns summary" m;
        each (fun who v ->
            match v with
            | Timer tm ->
              line "%s_ns%s %d" m (lbl who [ "quantile=\"0.5\"" ]) tm.t_p50_ns;
              line "%s_ns%s %d" m (lbl who [ "quantile=\"0.95\"" ]) tm.t_p95_ns;
              line "%s_ns%s %d" m (lbl who [ "quantile=\"0.99\"" ]) tm.t_p99_ns;
              line "%s_ns_sum%s %.1f" m (lbl who []) (tm.t_mean_ns *. float_of_int tm.t_count);
              line "%s_ns_count%s %d" m (lbl who []) tm.t_count
            | _ -> ());
        line "# HELP %s_ns_min evendb minimum observed latency %s (nanoseconds)" m
          (prom_label_escape name);
        line "# TYPE %s_ns_min gauge" m;
        each (fun who v ->
            match v with Timer tm -> line "%s_ns_min%s %d" m (lbl who []) tm.t_min_ns | _ -> ());
        line "# HELP %s_ns_max evendb maximum observed latency %s (nanoseconds)" m
          (prom_label_escape name);
        line "# TYPE %s_ns_max gauge" m;
        each (fun who v ->
            match v with Timer tm -> line "%s_ns_max%s %d" m (lbl who []) tm.t_max_ns | _ -> ())
      | [] -> ())
    (List.sort compare (List.rev !names));
  if List.exists (fun (_, s) -> s.spans <> []) parts then begin
    line "# HELP evendb_span_count closed spans per span name";
    line "# TYPE evendb_span_count counter";
    List.iter
      (fun (who, s) ->
        List.iter
          (fun (st : Trace.span_stat) ->
            line "evendb_span_count%s %d"
              (lbl who [ Printf.sprintf "name=\"%s\"" (prom_label_escape st.Trace.span_name) ])
              st.Trace.span_count)
          s.spans)
      parts;
    line "# HELP evendb_span_total_ns cumulative span duration per span name";
    line "# TYPE evendb_span_total_ns counter";
    List.iter
      (fun (who, s) ->
        List.iter
          (fun (st : Trace.span_stat) ->
            line "evendb_span_total_ns%s %d"
              (lbl who [ Printf.sprintf "name=\"%s\"" (prom_label_escape st.Trace.span_name) ])
              st.Trace.span_total_ns)
          s.spans)
      parts;
    if
      List.exists
        (fun (_, s) ->
          List.exists (fun (st : Trace.span_stat) -> st.Trace.span_attr_totals <> []) s.spans)
        parts
    then begin
      line "# HELP evendb_span_attr_total summed span attributes per span name";
      line "# TYPE evendb_span_attr_total counter";
      List.iter
        (fun (who, s) ->
          List.iter
            (fun (st : Trace.span_stat) ->
              List.iter
                (fun (k, v) ->
                  line "evendb_span_attr_total%s %d"
                    (lbl who
                       [
                         Printf.sprintf "name=\"%s\"" (prom_label_escape st.Trace.span_name);
                         Printf.sprintf "attr=\"%s\"" (prom_label_escape k);
                       ])
                    v)
                st.Trace.span_attr_totals)
            s.spans)
        parts
    end
  end;
  Buffer.contents buf

let to_prometheus t = to_prometheus_parts ~label:"shard" [ (None, snapshot t) ]

let to_prometheus_many ?(label = "shard") parts =
  to_prometheus_parts ~label (List.map (fun (v, t) -> (Some v, snapshot t)) parts)

(* Chrome trace-event (chrome://tracing / Perfetto) export of the span
   ring buffer. Complete events ("ph":"X") with microsecond wall-clock
   timestamps; one metadata event names the process and each thread id
   seen in the ring. *)
let to_chrome_trace ?(process_name = "evendb") ?(extra = []) t =
  let events = Trace.recent t.tr @ extra in
  let pid = Unix.getpid () in
  let jus ns buf = Buffer.add_string buf (Printf.sprintf "%.3f" (float_of_int ns /. 1e3)) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit fields =
    if !first then first := false else Buffer.add_char buf ',';
    add_json_obj buf fields
  in
  let metadata ~name ~tid ~value =
    emit
      [
        ("name", jstr name);
        ("ph", jstr "M");
        ("pid", jint pid);
        ("tid", jint tid);
        ("args", fun buf -> add_json_obj buf [ ("name", jstr value) ]);
      ]
  in
  metadata ~name:"process_name" ~tid:0 ~value:process_name;
  let tids =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.Trace.ev_tid) events)
  in
  List.iter
    (fun tid -> metadata ~name:"thread_name" ~tid ~value:(Printf.sprintf "thread-%d" tid))
    tids;
  List.iter
    (fun (e : Trace.event) ->
      emit
        [
          ("name", jstr e.Trace.ev_name);
          ("cat", jstr "evendb");
          ("ph", jstr "X");
          ("ts", jus (to_wall_ns e.Trace.ev_start_ns));
          ("dur", jus e.Trace.ev_dur_ns);
          ("pid", jint pid);
          ("tid", jint e.Trace.ev_tid);
          ("args", fun buf -> add_json_obj buf (List.map (fun (k, v) -> (k, jint v)) e.Trace.ev_attrs));
        ])
    events;
  Buffer.add_string buf "]}";
  Buffer.contents buf
