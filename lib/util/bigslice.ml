(* A read-mostly byte slice over a char bigarray. Storage backends hand
   these out for partial reads: the disk backend can back them with an
   mmap window (zero-copy), the memory backend with a fresh buffer. The
   block cache holds them directly, so a cached block is never re-copied
   on the way to the decoder — only decoded keys/values are
   materialized as strings. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { buf : buf; off : int; len : int }

let length t = t.len

let of_bigarray ?(off = 0) ?len buf =
  let buf_len = Bigarray.Array1.dim buf in
  let len = match len with Some l -> l | None -> buf_len - off in
  if off < 0 || len < 0 || off + len > buf_len then
    invalid_arg "Bigslice.of_bigarray: slice out of bounds";
  { buf; off; len }

let create len =
  of_bigarray (Bigarray.Array1.create Bigarray.char Bigarray.c_layout len)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bigslice.get: index out of bounds";
  Bigarray.Array1.unsafe_get t.buf (t.off + i)

let unsafe_get t i = Bigarray.Array1.unsafe_get t.buf (t.off + i)

let set t i c =
  if i < 0 || i >= t.len then invalid_arg "Bigslice.set: index out of bounds";
  Bigarray.Array1.unsafe_set t.buf (t.off + i) c

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg "Bigslice.sub: slice out of bounds";
  { buf = t.buf; off = t.off + off; len }

(* Unchecked memcpy in the C stub (evendb_util_stubs.c). Callers check
   bounds. *)
external blit_bytes_to_buf :
  bytes -> (int[@untagged]) -> buf -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "evendb_blit_bytes_to_bigarray_byte" "evendb_blit_bytes_to_bigarray"
[@@noalloc]

external blit_buf_to_bytes :
  buf -> (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "evendb_blit_bigarray_to_bytes_byte" "evendb_blit_bigarray_to_bytes"
[@@noalloc]

let of_string s =
  let n = String.length s in
  let t = create n in
  blit_bytes_to_buf (Bytes.unsafe_of_string s) 0 t.buf 0 n;
  t

let substring t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg "Bigslice.substring: slice out of bounds";
  let b = Bytes.create len in
  blit_buf_to_bytes t.buf (t.off + off) b 0 len;
  Bytes.unsafe_to_string b

let to_string t = substring t ~off:0 ~len:t.len

let copy t =
  let dst = create t.len in
  Bigarray.Array1.blit (Bigarray.Array1.sub t.buf t.off t.len) dst.buf;
  dst

let blit_from_bytes src ~src_off dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > Bytes.length src then
    invalid_arg "Bigslice.blit_from_bytes: source out of bounds";
  if dst_off < 0 || dst_off + len > dst.len then
    invalid_arg "Bigslice.blit_from_bytes: destination out of bounds";
  blit_bytes_to_buf src src_off dst.buf (dst.off + dst_off) len
