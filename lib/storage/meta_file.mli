(** The frame every small metadata file shares: the payload followed by
    its CRC32C, little-endian.

    Manifests, checkpoints, the recovery table, snapshot markers, the
    shard partition file and the replication watermark all use it. A
    store writes [name ^ ".tmp"], fsyncs it and renames it over [name],
    so a failure at any step leaves the previous file intact and
    removes the tmp file. A load verifies the length and the checksum
    and raises a typed {!Env.Corruption} naming the file. *)

val publish : Env.t -> name:string -> string -> unit
(** Atomically replace [name] with exactly [data] (no frame): write
    [name ^ ".tmp"], fsync, close, rename. On any failure the tmp file
    is removed, the previous [name] is left intact and the underlying
    {!Env.Io_error} is re-raised. Unframed markers (MODE, FENCED)
    publish through it. *)

val store : Env.t -> name:string -> string -> unit
(** Frame and publish [payload] as [name]; raises the underlying
    {!Env.Io_error} after cleaning up. *)

val load : Env.t -> name:string -> string option
(** The verified payload of [name], or [None] if the file does not
    exist. Raises {!Env.Corruption} ("truncated" or "bad checksum")
    after counting it with {!Env.note_corruption}. *)

val decode : Env.t -> name:string -> (string -> 'a) -> 'a option
(** {!load}, then parse the payload; an [Invalid_argument] from the
    parser becomes a "malformed payload" corruption. *)

val corrupt : Env.t -> name:string -> string -> 'a
(** Count a corruption of [name] and raise it with [detail]. *)

val crc_to_string : int32 -> string
(** The 4-byte little-endian encoding of a CRC, as in the trailer. *)

val crc_of_string : string -> int -> int32
(** Inverse of {!crc_to_string}, reading 4 bytes at [pos]. *)
