type t = {
  bits : Bytes.t;
  nbits : int;
  k : int;
}

(* 64-bit FNV-1a; a second independent hash is derived by re-mixing, which
   is enough for double hashing (Kirsch & Mitzenmacher). *)
let[@inline] fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) 0x100000001b3L
  done;
  !h

let[@inline] remix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let create ?(bits_per_key = 10) n =
  if bits_per_key <= 0 then invalid_arg "Bloom.create: bits_per_key <= 0";
  let n = max 1 n in
  let nbits = max 64 (n * bits_per_key) in
  let nbits = (nbits + 7) / 8 * 8 in
  let k = int_of_float (0.69314718056 *. float_of_int bits_per_key) in
  let k = max 1 (min 30 k) in
  { bits = Bytes.make (nbits / 8) '\000'; nbits; k }

type hash = { h1 : int; h2 : int }

(* Probe [i] (from 0) tests bit [(h1 + i * h2) land max_int mod nbits],
   sums taken in 64 bits. Only the low 62 bits of a sum reach the bit
   index, so native ints (arithmetic mod 2^63) pick the same bits. *)
let hash key =
  let h1 = fnv1a key in
  { h1 = Int64.to_int h1; h2 = Int64.to_int (remix h1) }

let[@inline] set_bit b i =
  let byte = i lsr 3 and off = i land 7 in
  Bytes.unsafe_set b byte (Char.unsafe_chr (Char.code (Bytes.unsafe_get b byte) lor (1 lsl off)))

let[@inline] get_bit b i =
  let byte = i lsr 3 and off = i land 7 in
  Char.code (Bytes.unsafe_get b byte) land (1 lsl off) <> 0

let add_hash t { h1; h2 } =
  let h = ref h1 in
  for _ = 1 to t.k do
    set_bit t.bits (!h land max_int mod t.nbits);
    h := !h + h2
  done

let mem_hash t { h1; h2 } =
  let h = ref h1 and left = ref t.k in
  while !left > 0 && get_bit t.bits (!h land max_int mod t.nbits) do
    h := !h + h2;
    decr left
  done;
  !left = 0

let add t key = add_hash t (hash key)
let mem t key = mem_hash t (hash key)

let bit_count t = t.nbits

let fill_ratio t =
  let set = ref 0 in
  for i = 0 to t.nbits - 1 do
    if get_bit t.bits i then incr set
  done;
  float_of_int !set /. float_of_int t.nbits

let serialize t =
  let buf = Buffer.create (Bytes.length t.bits + 8) in
  Evendb_util.Varint.write buf t.nbits;
  Evendb_util.Varint.write buf t.k;
  Buffer.add_bytes buf t.bits;
  Buffer.contents buf

let deserialize s =
  try
    let nbits, pos = Evendb_util.Varint.read s 0 in
    let k, pos = Evendb_util.Varint.read s pos in
    if nbits <= 0 || nbits mod 8 <> 0 || k <= 0 || k > 30 then
      invalid_arg "Bloom.deserialize: bad header";
    let nbytes = nbits / 8 in
    if String.length s - pos <> nbytes then invalid_arg "Bloom.deserialize: size mismatch";
    { bits = Bytes.of_string (String.sub s pos nbytes); nbits; k }
  with Invalid_argument _ -> invalid_arg "Bloom.deserialize: malformed input"
