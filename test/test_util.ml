(* Unit and property tests for the utility substrate: varint, CRC-32C,
   bit tricks, RNG, Zipfian and power-law distributions, histogram,
   shared/exclusive lock, and the KV iterator algebra. *)

open Evendb_util

let qtest = QCheck_alcotest.to_alcotest

(* Case count of the byte-kernel properties (CRC-32C, Bigslice copies,
   Bloom probes). A soak raises it with KERNEL_PROP_COUNT=<n>. *)
let kernel_prop_count ~default =
  match Sys.getenv_opt "KERNEL_PROP_COUNT" with
  | None | Some "" -> default
  | Some s -> int_of_string s

(* ---- Varint ---- *)

let varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.write buf n;
      let v, next = Varint.read (Buffer.contents buf) 0 in
      Alcotest.(check int) "value" n v;
      Alcotest.(check int) "consumed" (Buffer.length buf) next;
      Alcotest.(check int) "size" (Buffer.length buf) (Varint.encoded_size n))
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 20; 1 lsl 40; max_int ]

let varint_sequence () =
  let buf = Buffer.create 64 in
  let values = [ 5; 300; 0; max_int; 77 ] in
  List.iter (Varint.write buf) values;
  let s = Buffer.contents buf in
  let rec check pos = function
    | [] -> Alcotest.(check int) "consumed all" (String.length s) pos
    | v :: rest ->
      let got, next = Varint.read s pos in
      Alcotest.(check int) "element" v got;
      check next rest
  in
  check 0 values

let varint_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint.write: negative") (fun () ->
      Varint.write (Buffer.create 4) (-1))

let varint_truncated () =
  let buf = Buffer.create 4 in
  Varint.write buf 300;
  let s = String.sub (Buffer.contents buf) 0 1 in
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.read: truncated") (fun () ->
      ignore (Varint.read s 0))

let varint_qcheck =
  QCheck.Test.make ~name:"varint roundtrip (random)" ~count:500
    QCheck.(small_nat)
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.write buf n;
      fst (Varint.read (Buffer.contents buf) 0) = n)

let varint_bytes_roundtrip =
  QCheck.Test.make ~name:"varint write_bytes/read_bytes" ~count:200 QCheck.small_nat (fun n ->
      let b = Bytes.create 16 in
      let stop = Varint.write_bytes b 3 n in
      let v, next = Varint.read_bytes b 3 in
      v = n && next = stop)

(* ---- CRC-32C ---- *)

let crc_known_vectors () =
  (* Standard CRC-32C test vector: "123456789" -> 0xE3069283. *)
  Alcotest.(check int32) "123456789" 0xE3069283l (Crc32c.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32c.string "")

let crc_mask_roundtrip =
  QCheck.Test.make ~name:"crc mask/unmask" ~count:500 QCheck.string (fun s ->
      let crc = Crc32c.string s in
      Crc32c.unmask (Crc32c.mask crc) = crc)

let crc_detects_flip =
  QCheck.Test.make ~name:"crc detects single-byte corruption" ~count:200
    QCheck.(string_of_size Gen.(int_range 1 64))
    (fun s ->
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      Crc32c.string (Bytes.to_string b) <> Crc32c.string s)

let crc_bytes_slice () =
  let b = Bytes.of_string "xxhello worldyy" in
  Alcotest.(check int32) "slice" (Crc32c.string "hello world") (Crc32c.bytes b ~pos:2 ~len:11)

(* RFC 3720 B.4: the iSCSI examples over 32-byte buffers, on the
   dispatched kernel and on the portable one. *)
let crc_rfc3720_vectors () =
  List.iter
    (fun (name, s, want) ->
      Alcotest.(check int32) name want (Crc32c.string s);
      Alcotest.(check int32) (name ^ ", portable") want (Crc32c.Internal.portable s ~pos:0 ~len:32))
    [
      ("32 zero bytes", String.make 32 '\000', 0x8a9136aal);
      ("32 x 0xff", String.make 32 '\255', 0x62a8ab43l);
      ("ascending", String.init 32 Char.chr, 0x46dd794el);
      ("descending", String.init 32 (fun i -> Char.chr (31 - i)), 0x113fdb5cl);
    ]

(* The byte-at-a-time CRC-32C over boxed [Int32], kept as the reference
   the kernels must match. *)
let crc_ref_table =
  Array.init 256 (fun i ->
      let c = ref (Int32.of_int i) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then c := Int32.logxor (Int32.shift_right_logical !c 1) 0x82f63b78l
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let crc_ref ?(init = 0l) s ~pos ~len =
  let crc = ref (Int32.logxor init 0xffffffffl) in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code s.[i]))) 0xffl) in
    crc := Int32.logxor crc_ref_table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int32.logxor !crc 0xffffffffl

(* Short inputs (0-64 bytes) reach every tail length 0-7 after every
   whole-word count; long ones (up to 8 KiB) the steady state. *)
let crc_input =
  let gen =
    let open QCheck.Gen in
    let* n = oneof [ int_range 0 64; int_range 0 8192 ] in
    let* s = string_size ~gen:char (return n) in
    let* pos = int_range 0 n in
    let* len = int_range 0 (n - pos) in
    let* cut = int_range 0 n in
    let* init = ui32 in
    return (s, pos, len, cut, init)
  in
  QCheck.make gen ~print:(fun (s, pos, len, cut, init) ->
      Printf.sprintf "len %d, pos %d, slice %d, cut %d, init %ld: %S" (String.length s) pos len cut init s)

let crc_matches_reference =
  QCheck.Test.make ~name:"crc32c: string/bytes/bigslice match the byte-at-a-time reference"
    ~count:(kernel_prop_count ~default:300) crc_input (fun (s, pos, len, cut, init) ->
      let n = String.length s in
      let slice = Bigslice.sub (Bigslice.of_string ("pad" ^ s)) ~off:3 ~len:n in
      let expected = crc_ref ~init s ~pos ~len in
      Crc32c.string ~init s = crc_ref ~init s ~pos:0 ~len:n
      && Crc32c.bytes ~init (Bytes.of_string s) ~pos ~len = expected
      && Crc32c.bigslice ~init slice ~pos ~len = expected
      && Crc32c.string ~init:(Crc32c.string (String.sub s 0 cut)) (String.sub s cut (n - cut))
         = Crc32c.string s)

(* The portable kernel, which [Crc32c.string] does not run on a CPU with
   SSE4.2: every start alignment 0-7, lengths up to 9000 (every tail
   length, past two 4 KiB blocks), and a checksum continued with
   [~init] from a cut inside the slice. *)
let crc_portable_input =
  let gen =
    let open QCheck.Gen in
    let* pos = int_range 0 7 in
    let* len = oneof [ int_range 0 64; int_range 0 9000 ] in
    let* s = string_size ~gen:char (return (pos + len)) in
    let* cut = int_range 0 len in
    let* init = ui32 in
    return (s, pos, len, cut, init)
  in
  QCheck.make gen ~print:(fun (s, pos, len, cut, init) ->
      Printf.sprintf "pos %d, len %d, cut %d, init %ld: %S" pos len cut init s)

let crc_portable_matches_reference =
  QCheck.Test.make ~name:"crc32c: the portable kernel matches the byte-at-a-time reference"
    ~count:(kernel_prop_count ~default:300) crc_portable_input (fun (s, pos, len, cut, init) ->
      let portable = Crc32c.Internal.portable in
      let expected = crc_ref ~init s ~pos ~len in
      portable ~init s ~pos ~len = expected
      && portable ~init:(portable ~init s ~pos ~len:cut) s ~pos:(pos + cut) ~len:(len - cut) = expected)

let crc_bounds () =
  let b = Bytes.create 8 and slice = Bigslice.create 8 in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises "bytes" (Invalid_argument "Crc32c.bytes: slice out of bounds") (fun () ->
          ignore (Crc32c.bytes b ~pos ~len));
      Alcotest.check_raises "bigslice" (Invalid_argument "Crc32c.bigslice: slice out of bounds")
        (fun () -> ignore (Crc32c.bigslice slice ~pos ~len)))
    [ (-1, 1); (0, -1); (0, 9); (8, 1); (5, 4) ]

(* ---- Bigslice ---- *)

(* The copies load and store whole words; these compare them against
   byte loops over a slice that starts mid-bigarray, so word loads
   straddle the slice's edges. *)
let pattern i = Char.chr (((i * 37) + 11) land 0xff)

let backing () =
  let big = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 96 in
  for i = 0 to 95 do
    big.{i} <- pattern i
  done;
  big

let slice_off = 5

let bigslice_copies_exhaustive () =
  let big = backing () in
  let slice = Bigslice.of_bigarray ~off:slice_off ~len:80 big in
  for off = 0 to 15 do
    for len = 0 to 40 do
      let what op = Printf.sprintf "%s off %d len %d" op off len in
      let expected = String.init len (fun i -> big.{slice_off + off + i}) in
      Alcotest.(check string) (what "substring") expected (Bigslice.substring slice ~off ~len);
      let sub = Bigslice.sub slice ~off ~len in
      Alcotest.(check string) (what "to_string") expected (Bigslice.to_string sub);
      let copy = Bigslice.copy sub in
      Alcotest.(check string) (what "copy") expected
        (String.init (Bigslice.length copy) (Bigslice.get copy));
      let fresh = Bigslice.of_string expected in
      Alcotest.(check string) (what "of_string") expected
        (String.init (Bigslice.length fresh) (Bigslice.get fresh));
      (* Blit into a second slice of the same shape; bytes outside
         [off, off + len) must keep their old values. *)
      let src = Bytes.init 64 (fun i -> Char.chr (255 - i)) in
      let dst_big = backing () in
      let dst = Bigslice.of_bigarray ~off:slice_off ~len:80 dst_big in
      Bigslice.blit_from_bytes src ~src_off:(15 - off) dst ~dst_off:off ~len;
      let want =
        String.init 96 (fun i ->
            let j = i - slice_off - off in
            if j >= 0 && j < len then Bytes.get src (15 - off + j) else pattern i)
      in
      Alcotest.(check string) (what "blit_from_bytes") want (String.init 96 (fun i -> dst_big.{i}))
    done
  done;
  let c = Bigslice.copy slice in
  Bigslice.set c 0 'Z';
  Alcotest.(check char) "copy is private" (pattern slice_off) (Bigslice.get slice 0)

let bigslice_copies_random =
  QCheck.Test.make ~name:"bigslice: word copies match byte loops" ~count:(kernel_prop_count ~default:200)
    QCheck.(quad (string_of_size Gen.(int_range 0 300)) (int_bound 7) (int_bound 300) (int_bound 300))
    (fun (s, a, b, c) ->
      let n = String.length s in
      let lead = a in
      let slice = Bigslice.sub (Bigslice.of_string (String.make lead '#' ^ s)) ~off:lead ~len:n in
      let off = if n = 0 then 0 else b mod (n + 1) in
      let len = c mod (n - off + 1) in
      let dst = Bigslice.create (n + 8) in
      for i = 0 to n + 7 do
        Bigslice.set dst i '.'
      done;
      Bigslice.blit_from_bytes (Bytes.of_string s) ~src_off:off dst ~dst_off:lead ~len;
      Bigslice.substring slice ~off ~len = String.sub s off len
      && Bigslice.to_string (Bigslice.copy slice) = s
      && String.init (n + 8) (Bigslice.get dst)
         = String.make lead '.' ^ String.sub s off len ^ String.make (n + 8 - lead - len) '.')

let bigslice_bounds () =
  let slice = Bigslice.of_bigarray ~off:slice_off ~len:80 (backing ()) in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ())) in
  List.iter
    (fun (off, len) ->
      raises "Bigslice.substring: slice out of bounds" (fun () -> Bigslice.substring slice ~off ~len);
      raises "Bigslice.sub: slice out of bounds" (fun () -> Bigslice.sub slice ~off ~len))
    [ (-1, 1); (0, -1); (0, 81); (80, 1); (41, 40) ];
  let src = Bytes.create 16 in
  List.iter
    (fun (src_off, len) ->
      raises "Bigslice.blit_from_bytes: source out of bounds" (fun () ->
          Bigslice.blit_from_bytes src ~src_off slice ~dst_off:0 ~len))
    [ (-1, 1); (0, -1); (0, 17); (9, 8) ];
  List.iter
    (fun (dst_off, len) ->
      raises "Bigslice.blit_from_bytes: destination out of bounds" (fun () ->
          Bigslice.blit_from_bytes (Bytes.create 100) ~src_off:0 slice ~dst_off ~len))
    [ (-1, 1); (0, 81); (80, 1); (73, 8) ];
  raises "Bigslice.get: index out of bounds" (fun () -> Bigslice.get slice 80);
  raises "Bigslice.of_bigarray: slice out of bounds" (fun () ->
      Bigslice.of_bigarray ~off:90 ~len:7 (backing ()))

(* ---- Bits ---- *)

let bits_clz_exhaustive () =
  (* Every power of two and its neighbours, across the whole 62-bit
     range — a shift-overflow bug once lurked exactly at 2^15/2^31. *)
  for p = 0 to 61 do
    let v = 1 lsl p in
    Alcotest.(check int) (Printf.sprintf "clz 2^%d" p) (62 - p) (Bits.clz63 v);
    if v > 1 then
      Alcotest.(check int) (Printf.sprintf "clz 2^%d-1" p) (62 - (p - 1)) (Bits.clz63 (v - 1));
    if p >= 1 && p < 61 then
      Alcotest.(check int) (Printf.sprintf "clz 2^%d+1" p) (62 - p) (Bits.clz63 (v + 1))
  done

let bits_clz_qcheck =
  QCheck.Test.make ~name:"clz63 matches float log2" ~count:1000
    QCheck.(int_range 1 max_int)
    (fun v ->
      let expected = 62 - int_of_float (Float.log2 (float_of_int v) +. 1e-9) in
      (* float log2 is exact enough below 2^52; above, verify
         monotonically instead *)
      if v < 1 lsl 52 then Bits.clz63 v = expected
      else Bits.clz63 v >= 0 && Bits.clz63 v <= 10)

let bits_clz () =
  Alcotest.(check int) "clz 1" 62 (Bits.clz63 1);
  Alcotest.(check int) "clz 0" 63 (Bits.clz63 0);
  Alcotest.(check int) "clz max" 1 (Bits.clz63 max_int);
  Alcotest.(check int) "ceil_log2 1" 0 (Bits.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 2" 1 (Bits.ceil_log2 2);
  Alcotest.(check int) "ceil_log2 3" 2 (Bits.ceil_log2 3);
  Alcotest.(check int) "next_pow2 100" 128 (Bits.next_pow2 100)

(* ---- RNG ---- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_bounds =
  QCheck.Test.make ~name:"rng int bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let rng_float_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* ---- Zipf ---- *)

let zipf_range =
  QCheck.Test.make ~name:"zipf samples in range" ~count:500
    QCheck.(int_range 1 10_000)
    (fun n ->
      let z = Zipf.create n in
      let r = Rng.create n in
      let v = Zipf.next z r in
      v >= 0 && v < n)

let zipf_skew () =
  (* Rank 0 must dominate: with theta 0.99 over 1000 items it should
     receive >= 5% of the mass empirically. *)
  let z = Zipf.create ~theta:0.99 1000 in
  let r = Rng.create 3 in
  let hits = ref 0 in
  let total = 20_000 in
  for _ = 1 to total do
    if Zipf.next z r = 0 then incr hits
  done;
  Alcotest.(check bool) "head heavy" true (float_of_int !hits /. float_of_int total > 0.05)

let zipf_probability_sums () =
  let z = Zipf.create ~theta:0.9 100 in
  let sum = ref 0.0 in
  for i = 0 to 99 do
    sum := !sum +. Zipf.probability z i
  done;
  Alcotest.(check bool) "probabilities sum to 1" true (Float.abs (!sum -. 1.0) < 1e-9)

let zipf_monotone () =
  let z = Zipf.create ~theta:0.9 100 in
  for i = 0 to 98 do
    if Zipf.probability z i < Zipf.probability z (i + 1) then
      Alcotest.fail "probability not monotone in rank"
  done

let zipf_scramble_stable =
  QCheck.Test.make ~name:"scramble is stable and in range" ~count:500
    QCheck.(pair (int_range 1 100000) small_nat)
    (fun (n, rank) ->
      let a = Zipf.scramble n rank and b = Zipf.scramble n rank in
      a = b && a >= 0 && a < n)

let zipf_theta_frequencies () =
  (* Table 3's left column: theoretical head frequency at theta=0.99
     over the paper's key count magnitude should be close to 4.87%. *)
  let z = Zipf.create ~theta:0.99 (1 lsl 20) in
  let head = Zipf.probability z 0 *. 100.0 in
  Alcotest.(check bool) "head frequency plausible" true (head > 3.0 && head < 8.0)

(* ---- Power law ---- *)

let power_law_coverage () =
  let p = Power_law.create ~exponent:1.7 2000 in
  let cov = Power_law.head_coverage p ~fraction:0.01 in
  Alcotest.(check bool) "heavy head" true (cov > 0.8)

let power_law_range =
  QCheck.Test.make ~name:"power law samples in range" ~count:300
    QCheck.(int_range 1 5000)
    (fun n ->
      let p = Power_law.create ~exponent:1.3 n in
      let r = Rng.create n in
      let v = Power_law.next p r in
      v >= 0 && v < n)

let power_law_probability () =
  let p = Power_law.create ~exponent:1.5 100 in
  let sum = ref 0.0 in
  for i = 0 to 99 do
    sum := !sum +. Power_law.probability p i
  done;
  Alcotest.(check bool) "sums to 1" true (Float.abs (!sum -. 1.0) < 1e-9)

(* ---- Histogram ---- *)

let histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Alcotest.(check int) "count" 10 (Histogram.count h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 10 (Histogram.max_value h);
  Alcotest.(check int) "p50" 5 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100" 10 (Histogram.percentile h 100.0);
  Alcotest.(check (float 0.001)) "mean" 5.5 (Histogram.mean h)

let histogram_relative_error =
  QCheck.Test.make ~name:"histogram p100 within 2% of max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (int_range 1 (1 lsl 40)))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let max_v = List.fold_left max 0 values in
      let p100 = Histogram.percentile h 100.0 in
      abs (p100 - max_v) <= (max_v / 50) + 1)

let histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 100;
  Histogram.record b 200;
  Histogram.merge_into ~src:b ~dst:a;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check int) "merged max" 200 (Histogram.max_value a)

let histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty percentile" 0 (Histogram.percentile h 99.0);
  Alcotest.(check int) "empty min" 0 (Histogram.min_value h)

let histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record h i
  done;
  (* One-pass extraction must agree with repeated single queries, even
     when the requested quantiles arrive out of order. *)
  let qs = [ 99.0; 50.0; 95.0 ] in
  Alcotest.(check (list int))
    "multi = repeated single"
    (List.map (Histogram.percentile h) qs)
    (Histogram.percentiles h qs);
  Alcotest.(check (list int)) "empty list" [] (Histogram.percentiles h []);
  let empty = Histogram.create () in
  Alcotest.(check (list int)) "empty histogram" [ 0; 0 ] (Histogram.percentiles empty [ 50.0; 99.0 ])

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let histogram_pp () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3 ];
  let s = Format.asprintf "%a" Histogram.pp h in
  Alcotest.(check bool) "mentions count" true (contains_substring ~sub:"count=3" s)

let histogram_all_magnitudes () =
  (* One value at every power of two: recording and percentile lookup
     must stay in bounds across the whole range. *)
  let h = Histogram.create () in
  for p = 0 to 61 do
    Histogram.record h (1 lsl p)
  done;
  Alcotest.(check int) "count" 62 (Histogram.count h);
  Alcotest.(check bool) "p100 at top" true (Histogram.percentile h 100.0 >= 1 lsl 61)

let histogram_reset () =
  let h = Histogram.create () in
  Histogram.record h 5;
  Histogram.reset h;
  Alcotest.(check int) "after reset" 0 (Histogram.count h)

(* ---- Rwlock ---- *)

let rwlock_shared_parallel () =
  let l = Rwlock.create () in
  Rwlock.lock_shared l;
  Rwlock.lock_shared l;
  (* Two readers coexist; a writer cannot enter. *)
  Alcotest.(check bool) "no writer while readers" false (Rwlock.try_lock_exclusive l);
  Rwlock.unlock_shared l;
  Rwlock.unlock_shared l;
  Alcotest.(check bool) "writer after readers gone" true (Rwlock.try_lock_exclusive l);
  Rwlock.unlock_exclusive l

let rwlock_writer_blocks_writer () =
  let l = Rwlock.create () in
  Rwlock.lock_exclusive l;
  Alcotest.(check bool) "second writer rejected" false (Rwlock.try_lock_exclusive l);
  Rwlock.unlock_exclusive l

let rwlock_threads () =
  let l = Rwlock.create () in
  let counter = ref 0 in
  let workers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 1000 do
              Rwlock.lock_exclusive l;
              incr counter;
              Rwlock.unlock_exclusive l
            done)
          ())
  in
  List.iter Thread.join workers;
  Alcotest.(check int) "writer mutual exclusion" 4000 !counter

(* ---- Kv_iter ---- *)

let e ?(version = 0) ?(counter = 0) ?value key : Kv_iter.entry =
  { key; value; version; counter }

let entry_order () =
  Alcotest.(check bool) "key order" true (Kv_iter.compare_entries (e "a") (e "b") < 0);
  Alcotest.(check bool) "newest first" true
    (Kv_iter.compare_entries (e ~version:5 "a") (e ~version:3 "a") < 0);
  Alcotest.(check bool) "counter tiebreak" true
    (Kv_iter.compare_entries (e ~version:5 ~counter:2 "a") (e ~version:5 ~counter:1 "a") < 0)

let merge_sorted () =
  let a = Kv_iter.of_list [ e "a"; e "c"; e "e" ] in
  let b = Kv_iter.of_list [ e "b"; e "d" ] in
  let merged = Kv_iter.to_list (Kv_iter.merge [ a; b ]) in
  Alcotest.(check (list string)) "merged order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.map (fun (x : Kv_iter.entry) -> x.key) merged)

let merge_qcheck =
  QCheck.Test.make ~name:"merge of sorted lists is sorted" ~count:200
    QCheck.(pair (list (pair (string_of_size Gen.(int_range 1 4)) small_nat)) (list (pair (string_of_size Gen.(int_range 1 4)) small_nat)))
    (fun (xs, ys) ->
      let entries l =
        List.sort Kv_iter.compare_entries
          (List.map (fun (k, v) -> e ~version:v ("k" ^ k)) l)
      in
      let merged = Kv_iter.to_list (Kv_iter.merge [ Kv_iter.of_list (entries xs); Kv_iter.of_list (entries ys) ]) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> Kv_iter.compare_entries a b <= 0 && sorted rest
        | _ -> true
      in
      sorted merged && List.length merged = List.length xs + List.length ys)

let dedup_keeps_newest () =
  let it =
    Kv_iter.of_list [ e ~version:9 ~value:"new" "a"; e ~version:3 ~value:"old" "a"; e "b" ]
  in
  match Kv_iter.to_list (Kv_iter.dedup it) with
  | [ first; second ] ->
    Alcotest.(check string) "key a" "a" first.Kv_iter.key;
    Alcotest.(check (option string)) "newest value" (Some "new") first.Kv_iter.value;
    Alcotest.(check string) "key b" "b" second.Kv_iter.key
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

let compact_no_floor () =
  (* Without a retained floor, only the newest version survives and
     newest tombstones are dropped. *)
  let it =
    Kv_iter.of_list
      [
        e ~version:9 ~value:"v9" "a"; e ~version:3 ~value:"v3" "a";
        e ~version:5 "b" (* tombstone *); e ~version:2 ~value:"old" "b";
      ]
  in
  let out = Kv_iter.to_list (Kv_iter.compact it) in
  Alcotest.(check int) "one survivor" 1 (List.length out);
  Alcotest.(check string) "a survives" "a" (List.hd out).Kv_iter.key;
  Alcotest.(check int) "newest version" 9 (List.hd out).Kv_iter.version

let compact_with_floor () =
  (* Floor 5: for key a with versions 9,5,3 -> keep 9 and 5 (5 is the
     newest version <= 5), drop 3. *)
  let it =
    Kv_iter.of_list
      [ e ~version:9 ~value:"v9" "a"; e ~version:5 ~value:"v5" "a"; e ~version:3 ~value:"v3" "a" ]
  in
  let out = Kv_iter.to_list (Kv_iter.compact ~min_retained_version:5 it) in
  Alcotest.(check (list int)) "versions retained" [ 9; 5 ]
    (List.map (fun (x : Kv_iter.entry) -> x.version) out)

let compact_keeps_tombstone_with_floor () =
  (* A tombstone shielding an older retained version must stay. *)
  let it =
    Kv_iter.of_list [ e ~version:9 "a" (* tombstone *); e ~version:2 ~value:"old" "a" ]
  in
  let out = Kv_iter.to_list (Kv_iter.compact ~min_retained_version:3 it) in
  Alcotest.(check int) "both retained" 2 (List.length out);
  Alcotest.(check bool) "newest is tombstone" true ((List.hd out).Kv_iter.value = None)

let compact_drop_tombstones_false () =
  let it = Kv_iter.of_list [ e ~version:5 "b" ] in
  let out = Kv_iter.to_list (Kv_iter.compact ~drop_tombstones:false it) in
  Alcotest.(check int) "tombstone kept" 1 (List.length out)

let compact_model =
  (* Model check: compact with no floor == newest entry per key,
     minus keys whose newest entry is a tombstone. *)
  QCheck.Test.make ~name:"compact matches map model" ~count:300
    QCheck.(list (triple (string_of_size Gen.(int_range 1 2)) (int_range 0 20) bool))
    (fun ops ->
      let entries =
        List.mapi
          (fun i (k, v, del) ->
            e ~version:v ~counter:i ?value:(if del then None else Some (string_of_int v)) ("k" ^ k))
          ops
      in
      let sorted = List.sort Kv_iter.compare_entries entries in
      let compacted = Kv_iter.to_list (Kv_iter.compact (Kv_iter.of_list sorted)) in
      let module M = Map.Make (String) in
      let model =
        List.fold_left
          (fun m (x : Kv_iter.entry) ->
            match M.find_opt x.key m with
            | Some (best : Kv_iter.entry) when Kv_iter.entry_newer best x -> m
            | _ -> M.add x.key x m)
          M.empty entries
      in
      let expected = M.filter (fun _ (x : Kv_iter.entry) -> x.value <> None) model in
      List.length compacted = M.cardinal expected
      && List.for_all
           (fun (x : Kv_iter.entry) ->
             match M.find_opt x.key expected with
             | Some best -> best.version = x.version && best.counter = x.counter
             | None -> false)
           compacted)

let filter_map_list () =
  let it = Kv_iter.of_list [ e ~version:1 "a"; e ~version:2 "b" ] in
  let out = Kv_iter.to_list (Kv_iter.filter (fun x -> x.Kv_iter.version > 1) it) in
  Alcotest.(check int) "filtered" 1 (List.length out)

let suite =
  [
    ( "varint",
      [
        Alcotest.test_case "roundtrip" `Quick varint_roundtrip;
        Alcotest.test_case "sequence" `Quick varint_sequence;
        Alcotest.test_case "negative rejected" `Quick varint_negative;
        Alcotest.test_case "truncated rejected" `Quick varint_truncated;
        qtest varint_qcheck;
        qtest varint_bytes_roundtrip;
      ] );
    ( "crc32c",
      [
        Alcotest.test_case "known vectors" `Quick crc_known_vectors;
        Alcotest.test_case "RFC 3720 vectors" `Quick crc_rfc3720_vectors;
        Alcotest.test_case "bytes slice" `Quick crc_bytes_slice;
        qtest crc_mask_roundtrip;
        qtest crc_detects_flip;
        qtest crc_matches_reference;
        qtest crc_portable_matches_reference;
        Alcotest.test_case "bounds checked" `Quick crc_bounds;
      ] );
    ( "bigslice",
      [
        Alcotest.test_case "copies, every offset 0-15 x length 0-40" `Quick bigslice_copies_exhaustive;
        qtest bigslice_copies_random;
        Alcotest.test_case "bounds checked" `Quick bigslice_bounds;
      ] );
    ( "bits",
      [
        Alcotest.test_case "clz and log2" `Quick bits_clz;
        Alcotest.test_case "clz exhaustive powers" `Quick bits_clz_exhaustive;
        qtest bits_clz_qcheck;
      ] );
    ( "rng",
      [
        Alcotest.test_case "deterministic" `Quick rng_deterministic;
        Alcotest.test_case "float range" `Quick rng_float_range;
        Alcotest.test_case "split independence" `Quick rng_split_independent;
        qtest rng_bounds;
      ] );
    ( "zipf",
      [
        Alcotest.test_case "head skew" `Quick zipf_skew;
        Alcotest.test_case "probability sums" `Quick zipf_probability_sums;
        Alcotest.test_case "probability monotone" `Quick zipf_monotone;
        Alcotest.test_case "theta head frequency" `Quick zipf_theta_frequencies;
        qtest zipf_range;
        qtest zipf_scramble_stable;
      ] );
    ( "power_law",
      [
        Alcotest.test_case "head coverage" `Quick power_law_coverage;
        Alcotest.test_case "probability sums" `Quick power_law_probability;
        qtest power_law_range;
      ] );
    ( "histogram",
      [
        Alcotest.test_case "exact small values" `Quick histogram_exact_small;
        Alcotest.test_case "merge" `Quick histogram_merge;
        Alcotest.test_case "empty" `Quick histogram_empty;
        Alcotest.test_case "reset" `Quick histogram_reset;
        Alcotest.test_case "all magnitudes in bounds" `Quick histogram_all_magnitudes;
        Alcotest.test_case "one-pass percentiles" `Quick histogram_percentiles;
        Alcotest.test_case "pp" `Quick histogram_pp;
        qtest histogram_relative_error;
      ] );
    ( "rwlock",
      [
        Alcotest.test_case "shared then exclusive" `Quick rwlock_shared_parallel;
        Alcotest.test_case "writer excludes writer" `Quick rwlock_writer_blocks_writer;
        Alcotest.test_case "threaded counter" `Quick rwlock_threads;
      ] );
    ( "kv_iter",
      [
        Alcotest.test_case "entry ordering" `Quick entry_order;
        Alcotest.test_case "merge sorted" `Quick merge_sorted;
        Alcotest.test_case "dedup keeps newest" `Quick dedup_keeps_newest;
        Alcotest.test_case "compact no floor" `Quick compact_no_floor;
        Alcotest.test_case "compact with floor" `Quick compact_with_floor;
        Alcotest.test_case "compact keeps shielding tombstone" `Quick compact_keeps_tombstone_with_floor;
        Alcotest.test_case "compact keeps tombstone when asked" `Quick compact_drop_tombstones_false;
        Alcotest.test_case "filter" `Quick filter_map_list;
        qtest merge_qcheck;
        qtest compact_model;
      ] );
  ]
