(** Published point-in-time snapshots (ROADMAP item 5).

    A snapshot is a whole-range scan that keeps its files. {!Db.snapshot}
    takes the scan's version cut (§3.3): a PO-array scan slot over the
    whole key range, held until the pin is done, so no munk put or
    compaction drops a version visible at the cut. Under the same slot
    it pins the manifest's live funk set; {!publish} then copies that
    set and the store's metadata under the ["snapshots/<id>/"]
    namespace of the same environment (see
    {!Evendb_storage.Env.snapshot_member}). This module owns the
    on-disk layout: the copies, the [COMPLETE] publish marker (written
    last, via tmp + fsync + rename, CRC-trailered), namespace
    enumeration, retention and garbage collection, and a read-only
    point-in-time {!reader}.

    Records newer than the cut may physically appear in the copied
    logs (writers race the publish); they are invisible both to the
    {!reader} and to a store restored from the snapshot, because the
    snapshot's checkpoint/recovery-table pair bounds visibility at the
    cut version. *)

open Evendb_storage

val validate_id : string -> unit
(** Ids name directories: alphanumerics plus [-_.], non-empty, not
    ["."]/[".."]. Raises [Invalid_argument] otherwise. *)

val member : id:string -> string -> string
(** Re-export of {!Env.snapshot_member}. *)

val complete_name : string
(** The publish marker's member name, ["COMPLETE"]. *)

type info = {
  id : string;
  version : int;  (** The cut: records above this are not in the view. *)
  next_id : int;  (** The source's next funk id at publish time. *)
  funks : (int * int) list;  (** Funk id and clipped log length. *)
}

val load_complete : Env.t -> id:string -> info option
(** [None] when the marker is absent; raises [Corruption] when present
    but damaged (a half-published snapshot that recovery sweeps). *)

val exists : Env.t -> id:string -> bool
(** Whether a published (COMPLETE) snapshot [id] exists. *)

val list : Env.t -> info list
(** Published snapshots, oldest cut first. Unpublished or corrupt
    directories are skipped. *)

val drop : Env.t -> id:string -> unit
(** Delete every member file of [id]; no-op when absent. *)

val published : Env.t -> string -> bool
(** [published env] is a predicate, memoized per id: does the id carry
    a valid [COMPLETE] marker? Recovery sweeps every member of an id
    for which it is [false] (see {!Layout.swept}). *)

(** {2 Publishing} *)

val publish :
  Env.t -> id:string -> version:int -> next_id:int -> rt:Recovery_table.t -> Funk.t list -> info
(** Copy the pinned funks (each log clipped at its current length) and
    write the snapshot's MANIFEST, RECOVERY_TABLE ([rt]), CHECKPOINT
    ([version], the cut) and MODE (always ["async"]), then the
    [COMPLETE] marker. The caller keeps the funks pinned throughout. A
    failure leaves members without a marker, which recovery sweeps. *)

val enforce_retention : Env.t -> max_retained:int -> int
(** Drop the oldest published snapshots beyond [max_retained] (no cap
    when [<= 0]); returns how many were dropped. *)

(** {2 Point-in-time reads} *)

type reader

val open_reader : Env.t -> id:string -> reader
(** Raises [Invalid_argument] when [id] is not published. *)

val get : reader -> string -> string option
val scan : reader -> low:string -> high:string -> (string * string) list
(** Inclusive range, newest visible version per key, tombstones
    elided — the same contract as {!Db.scan}. *)
