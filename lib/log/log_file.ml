open Evendb_util
open Evendb_storage

(* Payload: [op : 1B] [klen : varint] [key] [version : varint]
   [counter : varint] and, for puts, [vlen : varint] [value]. *)

module Record = struct
  let op_put = 0
  let op_delete = 1

  let payload_size (e : Kv_iter.entry) =
    let klen = String.length e.key in
    1 + Varint.encoded_size klen + klen + Varint.encoded_size e.version
    + Varint.encoded_size e.counter
    + match e.value with Some v -> Varint.encoded_size (String.length v) + String.length v | None -> 0

  let size e =
    let n = payload_size e in
    4 + Varint.encoded_size n + n

  let put_string b p s =
    let p = Varint.write_bytes b p (String.length s) in
    Bytes.blit_string s 0 b p (String.length s);
    p + String.length s

  (* The frame is built in place: payload after a 4-byte hole, then the
     payload's checksum into the hole — no intermediate string. *)
  let encode b (e : Kv_iter.entry) =
    let n = payload_size e in
    if Bytes.length b < 4 + Varint.encoded_size n + n then
      invalid_arg "Log_file.Record.encode: buffer too small";
    let start = Varint.write_bytes b 4 n in
    Bytes.set b start (Char.chr (match e.value with Some _ -> op_put | None -> op_delete));
    let p = put_string b (start + 1) e.key in
    let p = Varint.write_bytes b p e.version in
    let p = Varint.write_bytes b p e.counter in
    let fin = match e.value with Some v -> put_string b p v | None -> p in
    Bytes.set_int32_le b 0 (Crc32c.mask (Crc32c.bytes b ~pos:start ~len:n));
    fin

  let read_u32_le s pos =
    let b i = Int32.of_int (Char.code s.[pos + i]) in
    Int32.logor (b 0)
      (Int32.logor
         (Int32.shift_left (b 1) 8)
         (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))

  let decode_payload s pos len : Kv_iter.entry =
    let fin = pos + len in
    let op = Char.code s.[pos] in
    let klen, p = Varint.read s (pos + 1) in
    let key = String.sub s p klen in
    let p = p + klen in
    let version, p = Varint.read s p in
    let counter, p = Varint.read s p in
    if op = op_delete then begin
      if p <> fin then invalid_arg "trailing bytes";
      { key; value = None; version; counter }
    end
    else begin
      let vlen, p = Varint.read s p in
      if p + vlen <> fin then invalid_arg "bad value length";
      { key; value = Some (String.sub s p vlen); version; counter }
    end

  let decode s ~pos =
    let n = String.length s in
    if pos + 5 > n then None
    else
      match
        let expected = Crc32c.unmask (read_u32_le s pos) in
        let len, p = Varint.read s (pos + 4) in
        if len < 0 || p + len > n then None
        else if Crc32c.bytes (Bytes.unsafe_of_string s) ~pos:p ~len <> expected then None
        else Some (decode_payload s p len, p + len)
      with
      | result -> result
      | exception Invalid_argument _ -> None
end

module Writer = struct
  type t = {
    file : Env.file;
    mutable frame : bytes; (* the record being framed; grows, never shrinks *)
    mutex : Mutex.t;
    mutable pos : int;
  }

  let make file =
    { file; frame = Bytes.create 256; mutex = Mutex.create (); pos = Env.file_size file }

  let create env name = make (Env.create env name)
  let open_append env name = make (Env.open_append env name)

  (* Append and fsync charge themselves to the calling op's attribution
     frame (Attr.timed is a no-op off the op hot path), so WAL/funk-log
     cost shows up as Log_append/Fsync without this layer holding any
     Attr handle. The append charge includes the writer mutex wait:
     serialization behind a contended log IS log-append stall. *)
  let append_locked t e =
    let size = Record.size e in
    if Bytes.length t.frame < size then
      t.frame <- Bytes.create (max size (2 * Bytes.length t.frame));
    let len = Record.encode t.frame e in
    let start = t.pos in
    (try Env.append_bytes t.file t.frame ~pos:0 ~len
     with exn ->
       (* A failed append may be torn: some prefix of the record
          reached the backend. Resync to what actually landed so the
          next record starts after the garbage — readers skip it by
          CRC resynchronization. *)
       t.pos <- Env.file_size t.file;
       raise exn);
    t.pos <- start + len;
    start

  let append t e =
    Evendb_obs.Attr.timed Evendb_obs.Attr.Log_append @@ fun () ->
    Mutex.lock t.mutex;
    match append_locked t e with
    | start ->
      Mutex.unlock t.mutex;
      start
    | exception exn ->
      Mutex.unlock t.mutex;
      raise exn

  let size t = t.pos

  let fsync t = Evendb_obs.Attr.timed Evendb_obs.Attr.Fsync (fun () -> Env.fsync t.file)
  let close t = Env.close_file t.file
end

module Reader = struct
  let fold ?(lo = 0) ?hi env name ~init ~f =
    if not (Env.exists env name) then init
    else begin
      (* Read only the requested range: segment-bounded lookups must not
         pay for the whole log (that is the point of the partitioned
         bloom filter). [hi], when it is a segment boundary, is also a
         record boundary, so no record straddles it. *)
      let file_len = Env.size env name in
      let hi = match hi with None -> file_len | Some h -> min h file_len in
      if lo >= hi then init
      else begin
        let data = Env.read_at env name ~off:lo ~len:(hi - lo) in
        (* Torn writes leave garbage mid-log when appends resume after a
           failure. On a framing/CRC mismatch, resynchronize: scan ahead
           byte-by-byte for the next position that decodes as a valid
           record, so one torn record never hides the acknowledged
           records behind it. A spurious match needs a 32-bit CRC
           collision inside garbage. *)
        (* Each maximal garbage run is one resync event on the env's
           counter — the observable trace of torn writes survived. *)
        let rec go acc pos ~in_garbage =
          if pos >= hi - lo then acc
          else
            match Record.decode data ~pos with
            | None ->
              if not in_garbage then Env.note_log_resync env;
              go acc (pos + 1) ~in_garbage:true
            | Some (e, next) -> go (f acc (lo + pos) e) next ~in_garbage:false
        in
        go init 0 ~in_garbage:false
      end
    end

  let entries env name =
    List.rev (fold env name ~init:[] ~f:(fun acc off e -> (off, e) :: acc))

  let valid_prefix_length env name =
    if not (Env.exists env name) then 0
    else begin
      let data = Env.read_all env name in
      let rec go pos =
        match Record.decode data ~pos with
        | None -> pos
        | Some (_, next) -> go next
      in
      go 0
    end

  let garbage_regions env name =
    if not (Env.exists env name) then []
    else begin
      let data = Env.read_all env name in
      let n = String.length data in
      let rec go acc pos ~run_start =
        if pos >= n then
          match run_start with None -> List.rev acc | Some s -> List.rev ((s, n) :: acc)
        else
          match Record.decode data ~pos with
          | None ->
            let run_start = match run_start with None -> Some pos | some -> some in
            go acc (pos + 1) ~run_start
          | Some (_, next) -> (
            match run_start with
            | None -> go acc next ~run_start:None
            | Some s -> go ((s, pos) :: acc) next ~run_start:None)
      in
      go [] 0 ~run_start:None
    end
end
