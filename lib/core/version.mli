(** Version numbers with embedded epochs (§3.5).

    "A version is split into an epoch number [...] and a per-epoch
    version number. Incrementing the GV in the normal mode effectively
    increases the latter. The recovery procedure increments the former
    and resets the latter."

    We pack both into one OCaml int: the top 16 bits (of 62 usable,
    keeping the value non-negative) hold the epoch, the remaining 46
    the per-epoch sequence. Comparisons of packed versions across
    epochs remain monotone because epochs only grow. *)

val seq_bits : int
val max_epoch : int

val pack : epoch:int -> seq:int -> int
(** Raises [Invalid_argument] on overflow of either field. *)

val epoch : int -> int
val seq : int -> int
