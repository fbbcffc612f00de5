open Evendb_util
open Evendb_storage
open Evendb_bloom

let magic = "EVSST002"
let footer_magic = "EVSSTEND"

(* index_off, index_len, bloom_off, bloom_len, index_crc, bloom_crc, magic *)
let footer_size = 8 + 8 + 8 + 8 + 4 + 4 + 8

(* Entry encoding inside a block:
   [op : 1B] [klen] [key] [version] [counter] ([vlen] [value] for puts),
   varints throughout. Every region of the file is covered by a CRC32C:
   the header's min-key, each data block (checksum stored in its index
   entry), the bloom section and the index itself (checksums in the
   footer). A flipped byte anywhere is detected either by one of those
   checksums or by the structural invariants [open_] enforces on the
   footer's offsets, and surfaces as the typed [Env.Corruption]. *)

let op_put = 0
let op_delete = 1

let encode_entry buf (e : Kv_iter.entry) =
  Buffer.add_char buf (Char.chr (match e.value with Some _ -> op_put | None -> op_delete));
  Varint.write buf (String.length e.key);
  Buffer.add_string buf e.key;
  Varint.write buf e.version;
  Varint.write buf e.counter;
  match e.value with
  | Some v ->
    Varint.write buf (String.length v);
    Buffer.add_string buf v
  | None -> ()

(* The entry decoder, over a block as read or cached (bigarray-backed):
   only the keys and values are materialized as strings; the block
   itself is never copied. Out-of-bounds access raises
   [Invalid_argument]. *)
let read_varint_big (b : Bigslice.t) pos =
  let rec go acc shift pos =
    let c = Char.code (Bigslice.get b pos) in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 <> 0 then go acc (shift + 7) (pos + 1) else (acc, pos + 1)
  in
  go 0 0 pos

let decode_entry_big (b : Bigslice.t) pos : Kv_iter.entry * int =
  let op = Char.code (Bigslice.get b pos) in
  let klen, p = read_varint_big b (pos + 1) in
  let key = Bigslice.substring b ~off:p ~len:klen in
  let p = p + klen in
  let version, p = read_varint_big b p in
  let counter, p = read_varint_big b p in
  if op = op_delete then ({ Kv_iter.key; value = None; version; counter }, p)
  else begin
    let vlen, p = read_varint_big b p in
    ({ Kv_iter.key; value = Some (Bigslice.substring b ~off:p ~len:vlen); version; counter },
     p + vlen)
  end

type block_meta = {
  first_key : string;
  offset : int;
  length : int;
  entries : int;
  crc : int32; (* unmasked CRC32C of the block's bytes *)
}

let add_u64_le buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let read_u64_le s pos =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let add_u32_le buf (v : int32) =
  let v = Int32.to_int v land 0xffffffff in
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let read_u32_le s pos =
  let b i = Int32.of_int (Char.code s.[pos + i]) in
  Int32.logor (b 0)
    (Int32.logor
       (Int32.shift_left (b 1) 8)
       (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))

module Builder = struct
  type t = {
    env : Env.t;
    file : Env.file;
    name : string;
    block_size : int;
    bloom_bits_per_key : int;
    with_bloom : bool;
    block : Buffer.t;
    mutable block_first_key : string option;
    mutable block_entries : int;
    mutable pos : int;
    mutable index : block_meta list; (* reversed *)
    mutable count : int;
    mutable last : Kv_iter.entry option;
    mutable keys : string list; (* distinct keys for the bloom, reversed *)
    mutable finished : bool;
  }

  let create env ?(block_size = 4096) ?(bloom_bits_per_key = 10) ?(with_bloom = false)
      ~name ~min_key () =
    let file = Env.create env name in
    let header = Buffer.create 64 in
    Buffer.add_string header magic;
    Varint.write header (String.length min_key);
    Buffer.add_string header min_key;
    add_u32_le header (Crc32c.mask (Crc32c.string min_key));
    Env.append file (Buffer.contents header);
    {
      env;
      file;
      name;
      block_size;
      bloom_bits_per_key;
      with_bloom;
      block = Buffer.create (2 * block_size);
      block_first_key = None;
      block_entries = 0;
      pos = Buffer.length header;
      index = [];
      count = 0;
      last = None;
      keys = [];
      finished = false;
    }

  let flush_block t =
    match t.block_first_key with
    | None -> ()
    | Some first_key ->
      let length = Buffer.length t.block in
      let contents = Buffer.contents t.block in
      Env.append t.file contents;
      t.index <-
        { first_key; offset = t.pos; length; entries = t.block_entries;
          crc = Crc32c.string contents }
        :: t.index;
      t.pos <- t.pos + length;
      Buffer.clear t.block;
      t.block_first_key <- None;
      t.block_entries <- 0

  let add t (e : Kv_iter.entry) =
    if t.finished then invalid_arg "Sstable.Builder.add: already finished";
    (match t.last with
    | Some prev when Kv_iter.compare_entries prev e >= 0 ->
      invalid_arg "Sstable.Builder.add: entries out of order"
    | _ -> ());
    if t.with_bloom then begin
      match t.keys with
      | k :: _ when String.equal k e.key -> ()
      | _ -> t.keys <- e.key :: t.keys
    end;
    (* Only split between distinct keys so that all versions of a key
       live in one block (versioned lookups then read a single block). *)
    (match t.last with
    | Some prev
      when Buffer.length t.block >= t.block_size && not (String.equal prev.key e.key) ->
      flush_block t
    | _ -> ());
    if t.block_first_key = None then t.block_first_key <- Some e.key;
    encode_entry t.block e;
    t.block_entries <- t.block_entries + 1;
    t.count <- t.count + 1;
    t.last <- Some e

  let entry_count t = t.count

  let abort t =
    if not t.finished then begin
      t.finished <- true;
      Env.close_file t.file;
      (try Env.delete t.env t.name with _ -> ())
    end

  let finish_exn t =
    flush_block t;
    (* Bloom section *)
    let bloom_off = t.pos in
    let bloom_str =
      if not t.with_bloom then ""
      else begin
        let filter = Bloom.create ~bits_per_key:t.bloom_bits_per_key (List.length t.keys) in
        List.iter (fun k -> Bloom.add filter k) t.keys;
        Bloom.serialize filter
      end
    in
    if bloom_str <> "" then Env.append t.file bloom_str;
    let bloom_len = String.length bloom_str in
    t.pos <- t.pos + bloom_len;
    (* Index section *)
    let index_buf = Buffer.create 1024 in
    let blocks = List.rev t.index in
    Varint.write index_buf (List.length blocks);
    Varint.write index_buf t.count;
    List.iter
      (fun b ->
        Varint.write index_buf (String.length b.first_key);
        Buffer.add_string index_buf b.first_key;
        Varint.write index_buf b.offset;
        Varint.write index_buf b.length;
        Varint.write index_buf b.entries;
        add_u32_le index_buf (Crc32c.mask b.crc))
      blocks;
    let index_str = Buffer.contents index_buf in
    let index_off = t.pos in
    Env.append t.file index_str;
    t.pos <- t.pos + String.length index_str;
    (* Footer *)
    let footer = Buffer.create footer_size in
    add_u64_le footer index_off;
    add_u64_le footer (String.length index_str);
    add_u64_le footer bloom_off;
    add_u64_le footer bloom_len;
    add_u32_le footer (Crc32c.mask (Crc32c.string index_str));
    add_u32_le footer (Crc32c.mask (Crc32c.string bloom_str));
    Buffer.add_string footer footer_magic;
    Env.append t.file (Buffer.contents footer);
    Env.fsync t.file;
    Env.close_file t.file

  (* A table is never observable half-written: if any append or fsync
     of the tail sections fails, the partial file is deleted. *)
  let finish t =
    if t.finished then invalid_arg "Sstable.Builder.finish: already finished";
    t.finished <- true;
    try finish_exn t
    with exn ->
      Env.close_file t.file;
      (try Env.delete t.env t.name with _ -> ());
      raise exn
end

module Reader = struct
  type t = {
    env : Env.t;
    name : string;
    chunk_min_key : string;
    blocks : block_meta array;
    count : int;
    bloom : Bloom.t option;
  }

  let corrupt env name detail =
    Env.note_corruption env;
    Io_error.raise_corruption ~file:name ~detail

  (* The structural decoders, shared by [open_] (strict) and [salvage]
     (lenient). Each raises [Bad] naming the defect it checked for; a
     stray decode or range failure surfaces as [Invalid_argument]. *)
  exception Bad of string

  (* Header: magic, min-key length, min key, CRC of the min key.
     Returns the min key and the header's length. *)
  let decode_header env name ~file_len =
    let header = Env.read_at env name ~off:0 ~len:(min file_len 4096) in
    if String.sub header 0 8 <> magic then raise (Bad "bad magic");
    let min_key_len, p = Varint.read header 8 in
    let fits = p + min_key_len + 4 <= String.length header in
    let min_key =
      if fits then String.sub header p min_key_len
      else
        (* pathological: huge min key spilling past the probe read *)
        Env.read_at env name ~off:p ~len:min_key_len
    in
    let crc_str =
      if fits then String.sub header (p + min_key_len) 4
      else Env.read_at env name ~off:(p + min_key_len) ~len:4
    in
    if Crc32c.string min_key <> Crc32c.unmask (read_u32_le crc_str 0) then
      raise (Bad "header checksum mismatch");
    (min_key, p + min_key_len + 4)

  type footer = {
    index_off : int;
    index_len : int;
    bloom_off : int;
    bloom_len : int;
    index_crc : int32;
    bloom_crc : int32;
  }

  let decode_footer env name ~file_len =
    let footer = Env.read_at env name ~off:(file_len - footer_size) ~len:footer_size in
    if String.sub footer (footer_size - 8) 8 <> footer_magic then raise (Bad "bad footer magic");
    {
      index_off = read_u64_le footer 0;
      index_len = read_u64_le footer 8;
      bloom_off = read_u64_le footer 16;
      bloom_len = read_u64_le footer 24;
      index_crc = Crc32c.unmask (read_u32_le footer 32);
      bloom_crc = Crc32c.unmask (read_u32_le footer 36);
    }

  (* The block index, verified against the footer's checksum: the
     entry count and each block's metadata, in file order. *)
  let decode_index env name ~file_len f =
    if f.index_off < 0 || f.index_len < 0 || f.index_off + f.index_len > file_len then
      raise (Bad "index out of range");
    let index_str =
      if f.index_len = 0 then "" else Env.read_at env name ~off:f.index_off ~len:f.index_len
    in
    if Crc32c.string index_str <> f.index_crc then raise (Bad "index checksum mismatch");
    let n_blocks, p = Varint.read index_str 0 in
    let count, p = Varint.read index_str p in
    let pos = ref p in
    let blocks =
      Array.init n_blocks (fun _ ->
          let klen, p = Varint.read index_str !pos in
          let first_key = String.sub index_str p klen in
          let p = p + klen in
          let offset, p = Varint.read index_str p in
          let length, p = Varint.read index_str p in
          let entries, p = Varint.read index_str p in
          let crc = Crc32c.unmask (read_u32_le index_str p) in
          pos := p + 4;
          { first_key; offset; length; entries; crc })
    in
    (count, blocks)

  let open_ env name =
    let corrupt detail = corrupt env name detail in
    let file_len =
      try Env.size env name with Not_found -> corrupt "file missing"
    in
    if file_len < footer_size + String.length magic then corrupt "file too small";
    match
      let chunk_min_key, header_len = decode_header env name ~file_len in
      let f = decode_footer env name ~file_len in
      (* The three sections must tile the file exactly: blocks from the
         end of the header to bloom_off, bloom to index_off, index to
         the footer. A flipped byte in any footer offset breaks this. *)
      if f.bloom_off < header_len || f.bloom_off + f.bloom_len <> f.index_off
         || f.index_off + f.index_len + footer_size <> file_len
      then corrupt "footer offsets inconsistent";
      let count, blocks = decode_index env name ~file_len f in
      let blocks_end =
        Array.fold_left
          (fun expected_off b ->
            if b.offset <> expected_off then corrupt "blocks not contiguous";
            b.offset + b.length)
          header_len blocks
      in
      if blocks_end <> f.bloom_off then corrupt "blocks do not reach bloom section";
      let bloom_str =
        if f.bloom_len = 0 then "" else Env.read_at env name ~off:f.bloom_off ~len:f.bloom_len
      in
      if Crc32c.string bloom_str <> f.bloom_crc then corrupt "bloom checksum mismatch";
      let bloom = if f.bloom_len = 0 then None else Some (Bloom.deserialize bloom_str) in
      { env; name; chunk_min_key; blocks; count; bloom }
    with
    | t -> t
    | exception Bad detail -> corrupt detail
    | exception Invalid_argument _ ->
      (* A stray decode/range failure while parsing means a mangled
         structure the explicit checks didn't name. *)
      corrupt "malformed structure"

  let name t = t.name
  let chunk_min_key t = t.chunk_min_key
  let entry_count t = t.count

  (* The bytes of block [b] as on disk, or [None] if their checksum
     does not match. Never through the block cache. *)
  let read_block env name b =
    let data = Env.pread env name ~off:b.offset ~len:b.length in
    if Crc32c.bigslice data ~pos:0 ~len:b.length = b.crc then Some data else None

  let read_block_exn t i =
    match read_block t.env t.name t.blocks.(i) with
    | Some data -> data
    | None -> corrupt t.env t.name (Printf.sprintf "block %d checksum mismatch" i)

  (* Serving-path block read through the environment's shared cache:
     the fill verifies the CRC once, a hit returns the cached slice
     with no copy and no re-verification. *)
  let fetch_block t i =
    match Env.block_cache t.env with
    | Some bc ->
      Evendb_cache.Block_cache.find_or_fill bc ~space:(Env.cache_space t.env)
        ~file:t.name ~index:i ~fill:(fun () -> read_block_exn t i)
    | None -> read_block_exn t i

  (* The [n] entries of a verified block; raises [Invalid_argument] if
     they do not decode. *)
  let decode_block data n =
    let pos = ref 0 in
    Array.init n (fun _ ->
        let e, next = decode_entry_big data !pos in
        pos := next;
        e)

  let block_entries t i =
    let data = fetch_block t i in
    try decode_block data t.blocks.(i).entries
    with Invalid_argument _ -> corrupt t.env t.name (Printf.sprintf "block %d undecodable" i)

  let verify t =
    (* [open_] already checked header, footer offsets, index and bloom
       checksums; what remains is every data block, read past the
       cache so scrub checks the bytes on disk, not a trusted copy. *)
    Array.iteri (fun i _ -> ignore (read_block_exn t i)) t.blocks

  let first_key t =
    if Array.length t.blocks = 0 then None else Some t.blocks.(0).first_key

  let last_key t =
    let nb = Array.length t.blocks in
    if nb = 0 then None
    else begin
      let entries = block_entries t (nb - 1) in
      Some entries.(Array.length entries - 1).key
    end

  (* Last block whose first_key <= key; -1 when key precedes everything. *)
  let find_block t key =
    let lo = ref 0 and hi = ref (Array.length t.blocks - 1) and result = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare t.blocks.(mid).first_key key <= 0 then begin
        result := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !result

  let may_contain t key = match t.bloom with None -> true | Some b -> Bloom.mem b key

  let get t ?(max_version = max_int) key =
    let bi = find_block t key in
    if bi < 0 then None
    else begin
      (* All versions of a key are within one block (builder splits only
         between distinct keys). *)
      let entries = block_entries t bi in
      let result = ref None in
      (try
         Array.iter
           (fun (e : Kv_iter.entry) ->
             let c = String.compare e.key key in
             if c > 0 then raise Exit
             else if c = 0 && e.version <= max_version then begin
               result := Some e;
               raise Exit
             end)
           entries
       with Exit -> ());
      !result
    end

  let get_all_versions t key =
    let bi = find_block t key in
    if bi < 0 then []
    else
      Array.to_list (block_entries t bi)
      |> List.filter (fun (e : Kv_iter.entry) -> String.equal e.key key)

  (* Entries from position [ci] of block [bi] (already decoded as
     [cur]) on, fetching later blocks only as they are pulled. *)
  let iter_at t bi cur ci =
    let bi = ref bi and cur = ref cur and ci = ref ci in
    let rec next () =
      if !ci < Array.length !cur then begin
        let e = (!cur).(!ci) in
        incr ci;
        Some e
      end
      else if !bi + 1 < Array.length t.blocks then begin
        incr bi;
        cur := block_entries t !bi;
        ci := 0;
        next ()
      end
      else None
    in
    next

  let iter t = iter_at t (-1) [||] 0

  (* The block index names the one block that can hold the first entry
     at or above [key] (all versions of a key share a block); a binary
     search inside it gives the position. If every entry of the block is
     below [key], the answer is the next block's first entry, which is
     only read when pulled. *)
  let iter_from t key =
    let bi = max 0 (find_block t key) in
    if bi >= Array.length t.blocks then fun () -> None
    else begin
      let entries = block_entries t bi in
      let lo = ref 0 and hi = ref (Array.length entries) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if String.compare entries.(mid).Kv_iter.key key < 0 then lo := mid + 1 else hi := mid
      done;
      iter_at t bi entries !lo
    end

  (* Best-effort extraction from a damaged table, for fsck --repair:
     whatever the index can still locate and whose block checksum still
     verifies is recovered; everything else is dropped. Conservative by
     design — nothing is decoded unless its CRC passed, so salvage can
     never resurrect garbage. Returns (min_key if trustworthy, entries
     in canonical order). Never raises [Env.Corruption]. *)
  let salvage env name =
    let try_opt f = try Some (f ()) with _ -> None in
    match try_opt (fun () -> Env.size env name) with
    | None -> (None, [])
    | Some file_len when file_len < footer_size + String.length magic -> (None, [])
    | Some file_len ->
      let min_key = try_opt (fun () -> fst (decode_header env name ~file_len)) in
      let blocks =
        try_opt (fun () -> snd (decode_index env name ~file_len (decode_footer env name ~file_len)))
      in
      let entries =
        List.concat_map
          (fun b ->
            match
              try_opt (fun () ->
                  if b.offset < 0 || b.length < 0 || b.offset + b.length > file_len then
                    raise Exit;
                  match read_block env name b with
                  | Some data -> Array.to_list (decode_block data b.entries)
                  | None -> raise Exit)
            with
            | Some es -> es
            | None -> [])
          (match blocks with Some bs -> Array.to_list bs | None -> [])
      in
      (min_key, entries)
end
