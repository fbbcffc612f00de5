(** The checkpoint file (§3.5).

    Stores the packed version (epoch + sequence) up to which all
    updates are guaranteed durable: "at all times, all updates
    pertaining to versions smaller than or equal to the version
    recorded in the checkpoint file have been persisted." Written
    atomically via temp + fsync + rename. *)

open Evendb_storage

val file_name : string

val store : ?name:string -> Env.t -> version:int -> unit
val load : ?name:string -> Env.t -> int option
(** [None] if no checkpoint was ever completed. Raises
    [Env.Corruption] on corruption. [?name] overrides the location
    (default {!file_name}) for snapshot-pinned copies. *)
