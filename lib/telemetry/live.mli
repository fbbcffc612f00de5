(** Continuous telemetry attached to a running engine: the windowed
    {!Sampler} on a background domain, its on-disk {!Journal} under the
    environment's [telemetry/] namespace, and (on request) the loopback
    {!Http} endpoint.

    Engine-agnostic: it needs only the engine's {!Evendb_obs.Obs.t}
    registry and {!Evendb_obs.Attr.t} attribution state, so an EvenDB
    store, a baseline LSM/FLSM tree or anything else registering the
    [db.put]/[db.get]/[db.delete]/[db.scan] op timers can be served.

    Opening an engine spawns nothing; telemetry is opt-in. The caller
    owns the lifecycle: {!stop} the handle {e before} closing the
    engine, so the last sample and the journal land while the registry
    and the environment are still live.

    Fixed sizes: a 512-sample in-memory ring (about 8.5 minutes at
    1 Hz) and a journal of 4 segments of 256 KiB each. *)

open Evendb_storage
open Evendb_obs

type t

val start :
  interval_ns:int ->
  env:Env.t ->
  obs:Obs.t ->
  attr:Attr.t ->
  extra:(unit -> (string * int) list) ->
  unit ->
  t
(** Open a fresh journal segment in [env] and start sampling [obs]
    every [interval_ns]. [extra] contributes per-tick gauges the
    registry does not carry (for an EvenDB store: [Db.sampler_gauges]). *)

val sampler : t -> Sampler.t

val serve : ?host:string -> ?port:int -> t -> int
(** Start the HTTP endpoint (default: ephemeral port on [127.0.0.1];
    returns the bound port) serving [/] (route index), [/metrics]
    (Prometheus), [/stat.json], [/series?last=N] (windowed samples),
    [/trace] (Chrome trace events) and [/slow] (slow-op JSONL).
    Idempotent: a second call returns the existing port. *)

val stat_json : t -> string
(** The [/stat.json] document: [uptime_ns] (since {!start}), per-op
    lifetime [count] and derived [per_s] rates ({!op_rates}), the full
    metrics registry ({!Evendb_obs.Obs.to_json}) and the attribution
    state ({!Evendb_obs.Attr.to_json}). *)

val op_rates : uptime_ns:int -> Obs.snapshot list -> (string * int * float) list
(** [(op, count, per_s)] for [put], [get], [delete] and [scan], summing
    the [db.<op>] timer counts over the snapshots (one per shard of a
    sharded store) and dividing by [uptime_ns]. *)

val stop : t -> unit
(** Stop the endpoint and the sampler and close the journal.
    Idempotent. *)
