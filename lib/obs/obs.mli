(** Unified observability substrate: a thread-safe metrics registry
    (counters, gauges, histogram-backed timers) plus a structured
    event-trace ring buffer with span helpers for long-running
    operations (rebalance, splits, compaction, checkpoints, recovery).

    One {!t} is owned by each engine instance; every layer of that
    engine bumps metrics registered in it. Registration is idempotent
    ([counter t name] twice returns the same cell), so call sites
    register once at open and keep the handle — bumping is a single
    atomic increment and never allocates.

    Two machine-readable exporters are provided: Prometheus-style text
    ({!to_prometheus}) and JSON ({!to_json}); both render the same
    {!snapshot}. *)

val now_ns : unit -> int
(** Monotonic-clock nanoseconds (CLOCK_MONOTONIC) — the clock behind
    every Timer/Trace measurement, immune to NTP steps. Differences are
    durations; absolute values are only meaningful relative to other
    [now_ns] readings in the same process. *)

val to_wall_ns : int -> int
(** Map a {!now_ns} reading to wall-clock nanoseconds since the Unix
    epoch, using a wall-clock epoch captured at library load. Only for
    export timestamps (e.g. trace files); never for durations. *)

(** {2 Instruments} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Timer : sig
  type t

  val record_ns : t -> int -> unit
  (** Fold one duration (nanoseconds) into the calling domain's shard
      of the timer's histogram (see {!Per_domain}): concurrent domains
      do not share a lock. *)

  val time : t -> (unit -> 'a) -> 'a
  (** Run the function and record its wall-clock duration (also on
      exception). *)

  val count : t -> int

  val summary : t -> int * float * int list * int * int * (int * int) list
  (** [(count, mean_ns, [p50; p95; p99], min_ns, max_ns, buckets)] of
      the shards merged, each read under its own lock. *)
end

(** {2 Event tracing} *)

module Trace : sig
  type t

  type span
  (** A span in flight; attributes may be attached before it closes. *)

  type event = {
    ev_name : string;
    ev_start_ns : int;
    ev_dur_ns : int;
    ev_tid : int;  (** id of the thread that opened the span *)
    ev_attrs : (string * int) list;
  }

  type span_stat = {
    span_name : string;
    span_count : int;
    span_total_ns : int;
    span_attr_totals : (string * int) list;  (** summed over closed spans *)
  }

  val create : ?capacity:int -> unit -> t
  (** Ring buffer of the [capacity] (default 256) most recent events.
      Aggregates (count, cumulative duration, attribute sums per span
      name) are kept forever. *)

  val declare : t -> string -> unit
  (** Pre-register a span name so it appears (zeroed) in {!stats} and
      in exports even before the first occurrence. *)

  val with_span : t -> ?attrs:(string * int) list -> name:string -> (span -> 'a) -> 'a
  (** Run the function under a span. The span is closed (event recorded,
      aggregates updated) when the function returns or raises. *)

  val add_attr : span -> string -> int -> unit
  (** Attach an integer attribute (bytes, entries, ...) to a span in
      flight; attributes of the same name accumulate. *)

  val stats : t -> span_stat list
  (** Per-name aggregates, sorted by name. *)

  val recent : t -> event list
  (** Most recent events, oldest first. *)

  val reset : t -> unit
end

(** {2 Registry} *)

type t

val create : ?trace_capacity:int -> unit -> t

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val timer : t -> string -> Timer.t

val probe : t -> string -> (unit -> int) -> unit
(** Register a gauge computed at snapshot time (e.g. mirroring a
    counter owned by a lower layer that does not depend on this
    library). Re-registering a name replaces its probe. *)

val trace : t -> Trace.t

(** {2 Snapshots and exporters} *)

type timer_summary = {
  t_count : int;
  t_mean_ns : float;
  t_p50_ns : int;
  t_p95_ns : int;
  t_p99_ns : int;
  t_min_ns : int;  (** true observed minimum, not a bucket estimate *)
  t_max_ns : int;  (** true observed maximum, not a bucket estimate *)
  t_buckets : (int * int) list;
      (** non-empty histogram buckets as [(upper_bound_ns, count)],
          ascending — enough to re-aggregate percentiles externally *)
}

type value = Counter of int | Gauge of int | Timer of timer_summary

type snapshot = {
  metrics : (string * value) list;  (** sorted by name; probes render as gauges *)
  spans : Trace.span_stat list;
}

val snapshot : t -> snapshot

val reset : t -> unit
(** Zero every counter, gauge and timer and clear the trace. Probes
    are left registered (they read external state). *)

(** {2 JSON writer}

    Shared by the JSON exporters ({!to_json}, [Attr], the telemetry
    sampler's records). A field renders itself into the buffer, so
    objects nest by passing [fun buf -> add_json_obj buf ...]. *)

val add_json_obj : Buffer.t -> (string * (Buffer.t -> unit)) list -> unit
(** [{"k1":v1,"k2":v2,...}], keys escaped, no whitespace. *)

val jint : int -> Buffer.t -> unit
val jstr : string -> Buffer.t -> unit

val jfloat : float -> Buffer.t -> unit
(** One decimal: ["%.1f"]. *)

val to_json : t -> string
(** One JSON document: [{"counters":{..},"gauges":{..},"timers":{..},
    "spans":{..}}]. Timer entries carry count/mean/p50/p95/p99/min/max
    in nanoseconds plus a ["buckets"] array of
    [\[upper_bound_ns, count\]] pairs (full histogram shape for
    external re-aggregation); span entries carry count, cumulative
    duration and attribute totals. *)

val to_chrome_trace : ?process_name:string -> ?extra:Trace.event list -> t -> string
(** Export the span ring buffer in Chrome trace-event format (loadable
    in [chrome://tracing] and Perfetto): complete events ([ph:"X"])
    with wall-clock microsecond timestamps (see {!to_wall_ns}),
    process/thread ids, span attributes under ["args"], and metadata
    events naming the process and each thread. [extra] events (e.g.
    {!Attr.chrome_events} slow-op reconstructions) are appended after
    the ring's. *)

val to_prometheus : t -> string
(** Prometheus text exposition with [# HELP]/[# TYPE] lines: metric
    names are sanitized to [evendb_<name>]; a timer exports a
    [<m>_ns] summary family (quantile samples plus [_sum]/[_count])
    and separate [<m>_ns_min]/[<m>_ns_max] gauge families (true
    observed extrema); spans expose [evendb_span_count],
    [evendb_span_total_ns] and [evendb_span_attr_total], keyed by a
    [name] label whose value is escaped per the exposition format
    (backslash, double-quote, newline). Every sample belongs to a
    declared family and each family's samples form one contiguous
    group, so strict exposition parsers accept the document whole. *)

val to_prometheus_many : ?label:string -> (string * t) list -> string
(** One exposition over several registries (e.g. a sharded store's
    per-shard instances): each metric name gets its [# HELP]/[# TYPE]
    pair exactly once — the format forbids repeats, so concatenating
    {!to_prometheus} outputs would be invalid — followed by one sample
    per registry labelled [<label>="<value>"] (default label
    ["shard"]). *)
