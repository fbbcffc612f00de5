(* The kernels are C (evendb_util_stubs.c): the SSE4.2 crc32
   instruction where the CPU has it, a portable slicing-by-8 otherwise.
   A register crosses the boundary as the low 32 bits of an [int]. *)

external select : unit -> unit = "evendb_crc32c_select"

let () = select ()

external crc_bytes :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "evendb_crc32c_bytes_byte" "evendb_crc32c_bytes"
[@@noalloc]

external crc_bigarray :
  (int[@untagged]) -> Bigslice.buf -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "evendb_crc32c_bigarray_byte" "evendb_crc32c_bigarray"
[@@noalloc]

external crc_portable :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "evendb_crc32c_portable_byte" "evendb_crc32c_portable"
[@@noalloc]

let[@inline] reg init = Int32.to_int init land 0xffffffff

let bytes ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32c.bytes: slice out of bounds";
  Int32.of_int (crc_bytes (reg init) b pos len)

let string ?(init = 0l) s =
  Int32.of_int (crc_bytes (reg init) (Bytes.unsafe_of_string s) 0 (String.length s))

let bigslice ?(init = 0l) (b : Bigslice.t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigslice.length b then
    invalid_arg "Crc32c.bigslice: slice out of bounds";
  Int32.of_int (crc_bigarray (reg init) b.buf (b.off + pos) len)

module Internal = struct
  let portable ?(init = 0l) s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Crc32c.Internal.portable: slice out of bounds";
    Int32.of_int (crc_portable (reg init) (Bytes.unsafe_of_string s) pos len)
end

(* Masking as in LevelDB: rotate right 15 bits and add a constant, so a CRC
   computed over data that itself contains CRCs stays well distributed. *)
let mask_delta = 0xa282ead8l

let mask crc =
  let rot =
    Int32.logor (Int32.shift_right_logical crc 15) (Int32.shift_left crc 17)
  in
  Int32.add rot mask_delta

let unmask masked =
  let rot = Int32.sub masked mask_delta in
  Int32.logor (Int32.shift_right_logical rot 17) (Int32.shift_left rot 15)
