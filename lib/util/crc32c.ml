(* Slicing-by-8 over native ints: [table.(k lsl 8 lor b)] is the CRC
   register after byte [b] followed by [k] zero bytes, so eight table
   lookups advance the register over one 8-byte word. The register lives
   in the low 32 bits of an [int]. *)

let poly = 0x82f63b78

let table =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor poly else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

external bytes_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external bigstring_get64 : Bigslice.buf -> int -> int64 = "%caml_bigstring_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] le64 w = if Sys.big_endian then swap64 w else w
let[@inline] step1 crc c = Array.unsafe_get table ((crc lxor Char.code c) land 0xff) lxor (crc lsr 8)

(* [w] is the next 8 input bytes, first byte least significant. *)
let[@inline] step8 crc w =
  let lo = crc lxor (Int64.to_int w land 0xffffffff) in
  let hi = Int64.to_int (Int64.shift_right_logical w 32) in
  Array.unsafe_get table (0x700 lor (lo land 0xff))
  lxor Array.unsafe_get table (0x600 lor ((lo lsr 8) land 0xff))
  lxor Array.unsafe_get table (0x500 lor ((lo lsr 16) land 0xff))
  lxor Array.unsafe_get table (0x400 lor (lo lsr 24))
  lxor Array.unsafe_get table (0x300 lor (hi land 0xff))
  lxor Array.unsafe_get table (0x200 lor ((hi lsr 8) land 0xff))
  lxor Array.unsafe_get table (0x100 lor ((hi lsr 16) land 0xff))
  lxor Array.unsafe_get table (hi lsr 24)

let start init = Int32.to_int init land 0xffffffff lxor 0xffffffff
let finish crc = Int32.of_int (crc lxor 0xffffffff)

(* The kernel. [bigslice] repeats its two loops with the bigarray load
   in place of the bytes load: a load passed as a closure would box
   every word. *)
let kernel crc b pos len =
  let crc = ref crc and i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    crc := step8 !crc (le64 (bytes_get64 b !i));
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    crc := step1 !crc (Bytes.unsafe_get b j)
  done;
  !crc

let bytes ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32c.bytes: slice out of bounds";
  finish (kernel (start init) b pos len)

let string ?(init = 0l) s =
  finish (kernel (start init) (Bytes.unsafe_of_string s) 0 (String.length s))

let bigslice ?(init = 0l) (b : Bigslice.t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigslice.length b then
    invalid_arg "Crc32c.bigslice: slice out of bounds";
  let crc = ref (start init) and i = ref (b.off + pos) and stop = b.off + pos + len in
  while !i + 8 <= stop do
    crc := step8 !crc (le64 (bigstring_get64 b.buf !i));
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    crc := step1 !crc (Bigarray.Array1.unsafe_get b.buf j)
  done;
  finish !crc

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
