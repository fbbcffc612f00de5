(** Per-operation tail-latency attribution.

    Each get/put/delete/scan runs under an {e op frame} — a
    domain-local record opened by {!with_op} — and every known stall
    site on the hot path wraps itself in {!timed}, charging its wall
    time to a named {!cause}. When the op closes, its cause breakdown
    is folded into cumulative per-kind totals; ops slower than a
    configurable threshold are additionally recorded — with their full
    breakdown and the maintenance spans they overlapped — in a bounded
    slow-op ring exportable as JSONL and as causal child spans of the
    Chrome trace.

    Design constraints, in priority order:

    - {b Cheap when idle.} {!timed} with no frame open (background
      maintainer domains, recovery) is a single domain-local read and a
      branch; no clock is touched. With attribution disabled,
      {!with_op} degrades to [Obs.Timer.time].
    - {b Sums never exceed the whole.} Only the outermost {!timed}
      section accumulates — nested sections run their function
      directly — so the per-op cause total is at most the op's wall
      time (up to clock jitter between the two reads).
    - {b No hidden allocation on the hot path.} Frames are preallocated
      per domain and reused; cause accumulation is array stores. Slow
      ops allocate (they are rare by construction: above-p95-style
      thresholds).

    The totals are lifetime sums. What share of {e recent} op time a
    cause owns is read the way every other instrument is windowed: as
    the change of its [attr.total_ns.<cause>] probe between two
    [Evendb_telemetry.Sampler] ticks, over the op timers' time in the
    same window ([evendb top]'s STALL CAUSES). *)

type cause =
  | Lock_wait  (** blocked acquiring a rebalance/writer lock, or a scan
                   waiting out pending puts *)
  | Log_append  (** funk-log / WAL record append, including the log
                    writer's internal mutex *)
  | Fsync  (** durability fsync (sync-mode puts, WAL sync policies,
               put-path checkpoints) *)
  | Disk_read  (** munk miss served from the funk (log/SSTable),
                   bloom rebuilds, munk loads, LSM level reads *)
  | Rebalance  (** EvenDB rebalance/split/merge/eviction work paid
                   inline by the op *)
  | Compaction  (** LSM/FLSM memtable flush + compaction paid inline
                    (the classic write stall) *)
  | Commit_wait  (** group commit: waiting for a batch to form, for the
                     leader slot, or for another domain's leader to
                     finish the batch's fsync *)
  | Cache_read  (** never charged (a munk-less scan is [Disk_read]);
                    kept because BENCHMARK.json's per-layer list
                    names [attr.cache_read] *)
  | View_build  (** never charged (the store builds no sorted views);
                    kept because BENCHMARK.json names
                    [attr.view_build] *)
  | Repl_ship  (** replication change-stream publish paid inline by the
                   put (enqueue into the shipping stream) *)

val all_causes : cause list
val cause_name : cause -> string

type kind = Put | Get | Delete | Scan

val kind_name : kind -> string

type t

val create : ?enabled:bool -> ?threshold_ns:int -> ?ring:int -> Obs.t -> t
(** [create obs] registers the attribution probes
    ([attr.total_ns.<cause>], [attr.slow.seen/kept/threshold_ns]) in
    [obs], and uses [obs]'s trace to harvest overlapping maintenance
    spans for slow ops. Defaults: [enabled = true], [threshold_ns] =
    1ms, [ring] = 256 slow ops. *)

val enabled : t -> bool

(** {2 Hot path} *)

val with_op : t -> kind -> Obs.Timer.t -> (unit -> 'a) -> 'a
(** Run [f] as one attributed operation: opens this domain's frame,
    times [f] into [timer] (reusing the same two clock reads), and
    folds the frame's cause breakdown into [t]. If a frame is already
    open on this domain (an engine op nested inside another), or
    attribution is disabled, behaves exactly like [Obs.Timer.time]. *)

val timed : cause -> (unit -> 'a) -> 'a
(** Charge the duration of [f] to [cause] on the {e innermost open
    frame of the calling domain}, whichever instance owns it — which is
    what lets leaf layers (log writer, munk) report stalls without
    holding a handle. Outside any frame, or nested inside another
    [timed] section, runs [f] untimed. *)

(** {2 Slow-op threshold} *)

val threshold_ns : t -> int

val set_threshold_ns : t -> int -> unit
(** Re-arm slow-op capture at a new threshold: clears the slow-op ring
    (records taken under the old threshold are not comparable) — the
    calibrate-then-measure idiom of the sync-durability bench. *)

(** {2 Introspection} *)

val cause_total_ns : t -> cause -> int
(** Cumulative nanoseconds charged to the cause across all op kinds. *)

val op_count : t -> kind -> int
val op_total_ns : t -> kind -> int

type slow_op = {
  so_kind : string;
  so_start_ns : int;  (** monotonic ({!Obs.now_ns}) *)
  so_wall_ns : int;  (** wall-clock start, for export *)
  so_dur_ns : int;
  so_threshold_ns : int;  (** threshold in force when recorded *)
  so_tid : int;
  so_causes : (string * int) list;  (** non-zero causes, ns *)
  so_spans : (string * int) list;
      (** trace spans (maintenance work on other domains, or inline
          work recorded as spans) overlapping the op, as
          [(span_name, overlap_ns)] — only spans already closed and
          still in the ring when the op ended are visible *)
}

val slow_ops : t -> slow_op list
(** Retained slow ops, oldest first (at most [ring]). *)

val slow_seen : t -> int
(** Total slow ops observed, including those overwritten in the ring. *)

val slow_ops_jsonl : ?tags:(string * string) list -> t -> string
(** One JSON object per line, oldest first; [tags] are extra string
    fields prepended to every record (e.g. engine/phase labels). *)

val chrome_events : t -> Obs.Trace.event list
(** The slow-op ring as synthetic trace events: one ["slow:<kind>"]
    parent per op plus sequential ["cause:<name>"] children laid out
    across its duration — feed as [?extra] to {!Obs.to_chrome_trace}
    so tail ops appear alongside the maintenance spans that explain
    them. *)

val to_json : t -> string
(** Everything above as one JSON document: per-kind op counts/time with
    full cause matrices, and a summary of the retained slow ops (cumulative time, attributed
    share, top cause). *)

val reset : t -> unit
(** Zero totals and the ring. Threshold and configuration survive. *)
