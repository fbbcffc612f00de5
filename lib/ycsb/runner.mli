(** Multi-domain workload runner (the YCSB driver of §5.1).

    Spawns worker domains that issue an identical operation mix
    against one engine, collecting per-operation latency histograms
    and a throughput-over-time series (for the dynamics figures). *)

open Evendb_util

type op =
  | Update  (** put to an existing (distribution-sampled) key *)
  | Insert  (** put to a fresh key *)
  | Read
  | Scan of int  (** scan this many rows from a sampled start key *)
  | Read_modify_write

type mix = (op * int) list
(** Operation percentages; must sum to 100. *)

val workload_p : mix
val workload_a : mix
val workload_b : mix
val workload_c : mix
val workload_d : mix
val workload_e : int -> mix
val workload_f : mix

type result = {
  ops : int;
  seconds : float;
  kops : float;
  put_hist : Histogram.t;
  get_hist : Histogram.t;
  scan_hist : Histogram.t;
  windows : (float * float) list;
      (** (window end time in s, throughput in Kops) series. *)
  failed_ops : int;
      (** Operations that raised a typed storage error ({!Evendb_storage.Env.Io_error}) —
          nonzero only when benchmarking under an injected fault profile. *)
}

val load : Engine.t -> Workload.shared -> unit
(** Insert the initial dataset in ascending key order, then run the
    engine's maintenance to quiescence (the paper's load phase). *)

val run :
  ?window_seconds:float ->
  ?warmup_ops:int ->
  Engine.t -> Workload.shared -> mix -> ops:int -> threads:int -> result
(** Execute [ops] operations split across [threads] domains. The
    measured span ([seconds]) runs from the first worker's first op to
    the last worker's last op: spawning and joining the domains is
    outside it, so a short run measures its ops. Raises
    [Invalid_argument] if the mix does not sum to 100 or
    [threads < 1]. *)

(** {2 A/B pairs}

    An A/B compares two arms of one experiment (say attribution on and
    off) by running N pairs of identical segments, one per arm, and
    judging the per-pair ratio of a figure where higher is better (a
    throughput). *)

val ab_pair : pair:int -> (on:bool -> 'a) -> 'a * 'a
(** [ab_pair ~pair segment] runs [segment] once per arm and returns
    [(on, off)]. The on arm runs first when [pair] is even and second
    when it is odd, so over a run of pairs neither arm always meets a
    fresher scheduler quantum or heap. *)

type verdict = {
  median : float;  (** Median of the per-pair [on /. off] ratios. *)
  on_wins : int;  (** Pairs where the on arm's figure was higher. *)
  off_wins : int;  (** Pairs where the off arm's was; ties count for neither. *)
  ratios : float list;  (** Per-pair [on /. off], in pair order. *)
}

val verdict : (float * float) list -> verdict
(** Judge per-pair [(on, off)] figures. The median of ratios, not the
    ratio of medians or of totals: one slow segment moves one ratio,
    not the verdict. The pair count is [List.length ratios]. Raises
    [Invalid_argument] on an empty list. *)
