(** Renderer behind [evendb top]: turns the tail of a sampler series
    into one fixed-layout text frame — ops/s and windowed p50/p99 per
    op kind, top stall causes, cache hit rates, hottest key prefixes,
    replication lag and store shape. Pure string building; the CLI owns
    the loop, the screen clearing and where the samples come from
    (in-process sampler or [/series] over HTTP). *)

val render : Sampler.sample list -> string
(** Render from the newest sample (rates, windowed percentiles) plus
    the one before it: cache hit rates and stall-cause shares need
    gauge deltas, because the cache and [attr.total_ns.<cause>] probes
    export lifetime totals. A cause's share is its
    [attr.total_ns.<cause>] growth over the window's op time
    (Σ count × mean of the [db.put/get/delete/scan] timers); with a
    single sample there is no window, and no STALL CAUSES section.
    Oldest-first input, as {!Sampler.samples} returns. An empty list
    renders a "no samples yet" frame. *)

val clear_screen : string
(** ANSI home+clear prefix for live refresh. *)
