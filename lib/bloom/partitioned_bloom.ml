type segment = {
  filter : Bloom.t;
  seg_start : int;
  mutable seg_end : int; (* max_int while the segment is still open *)
}

type t = {
  bits_per_key : int;
  segment_bytes : int;
  expected_keys : int;
  mutable segments : segment list; (* newest first *)
}

let create ?(bits_per_key = 10) ~segment_bytes ~expected_keys_per_segment () =
  if segment_bytes <= 0 then invalid_arg "Partitioned_bloom.create: segment_bytes <= 0";
  {
    bits_per_key;
    segment_bytes;
    expected_keys = max 16 expected_keys_per_segment;
    segments = [];
  }

let fresh_segment t seg_start =
  {
    filter = Bloom.create ~bits_per_key:t.bits_per_key t.expected_keys;
    seg_start;
    seg_end = max_int;
  }

let add t ~key ~log_offset =
  let seg =
    match t.segments with
    | head :: _ when log_offset - head.seg_start < t.segment_bytes -> head
    | rest ->
      (match rest with
      | head :: _ -> head.seg_end <- log_offset
      | [] -> ());
      let seg = fresh_segment t log_offset in
      t.segments <- seg :: t.segments;
      seg
  in
  Bloom.add seg.filter key

let segments_maybe_containing t key =
  let h = Bloom.hash key in
  List.filter_map
    (fun seg ->
      if Bloom.mem_hash seg.filter h then Some (seg.seg_start, seg.seg_end) else None)
    t.segments

let may_contain t key =
  let h = Bloom.hash key in
  List.exists (fun seg -> Bloom.mem_hash seg.filter h) t.segments

let segment_count t = List.length t.segments
