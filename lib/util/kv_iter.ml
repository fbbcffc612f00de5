type entry = {
  key : string;
  value : string option;
  version : int;
  counter : int;
}

let entry_newer a b =
  a.version > b.version || (a.version = b.version && a.counter > b.counter)

let compare_entries a b =
  let c = String.compare a.key b.key in
  if c <> 0 then c
  else begin
    let c = compare b.version a.version in
    if c <> 0 then c else compare b.counter a.counter
  end

type t = unit -> entry option

let of_list entries =
  let rest = ref entries in
  fun () ->
    match !rest with
    | [] -> None
    | e :: tl ->
      rest := tl;
      Some e

let to_list it =
  let rec go acc = match it () with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

(* Array-based min-heap over (entry, source-rank, iterator). Source rank
   breaks exact ties deterministically in favour of earlier inputs. *)
module Heap = struct
  type node = { mutable e : entry; rank : int; src : t }
  type h = { mutable a : node array; mutable n : int }

  let less x y =
    let c = compare_entries x.e y.e in
    if c <> 0 then c < 0 else x.rank < y.rank

  let create () = { a = [||]; n = 0 }

  let swap h i j =
    let tmp = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if less h.a.(i) h.a.(p) then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < h.n && less h.a.(l) h.a.(!m) then m := l;
    if r < h.n && less h.a.(r) h.a.(!m) then m := r;
    if !m <> i then begin
      swap h i !m;
      sift_down h !m
    end

  let push h node =
    if h.n = Array.length h.a then begin
      let cap = max 8 (2 * h.n) in
      let a = Array.make cap node in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    h.a.(h.n) <- node;
    h.n <- h.n + 1;
    sift_up h (h.n - 1)

  let pop_top h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    if h.n > 0 then begin
      h.a.(0) <- h.a.(h.n);
      sift_down h 0
    end;
    top
end

let merge sources =
  let h = Heap.create () in
  List.iteri
    (fun rank src ->
      match src () with
      | None -> ()
      | Some e -> Heap.push h { Heap.e; rank; src })
    sources;
  fun () ->
    if h.Heap.n = 0 then None
    else begin
      let node = Heap.pop_top h in
      let result = node.Heap.e in
      (match node.Heap.src () with
      | None -> ()
      | Some e ->
        node.Heap.e <- e;
        Heap.push h node);
      Some result
    end

let dedup it =
  let last_key = ref None in
  let rec next () =
    match it () with
    | None -> None
    | Some e ->
      if !last_key = Some e.key then next ()
      else begin
        last_key := Some e.key;
        Some e
      end
  in
  next

let compact ?min_retained_version ?(drop_tombstones = true) it =
  (* Entries arrive sorted by key then newest-first. Per key we retain the
     newest entry plus every version down to (and including) the newest
     version <= min_retained_version; then we trim tombstones off the old
     end of the retained list. *)
  let pending = ref [] (* retained entries of current key, reversed *) in
  let cur_key = ref None in
  let floor_seen = ref false in
  let out = ref [] in
  let emit_pending () =
    (* !pending is newest-first reversed = oldest-first; trim old tombstones *)
    let rec trim = function
      | { value = None; _ } :: tl when drop_tombstones -> trim tl
      | l -> l
    in
    let retained = trim !pending in
    out := retained @ !out (* oldest-first onto front of accumulator *)
  in
  let keep e =
    match min_retained_version with
    | None -> false (* only the newest survives *)
    | Some m ->
      if !floor_seen then false
      else begin
        if e.version <= m then floor_seen := true;
        true
      end
  in
  let rec drain () =
    match it () with
    | None -> emit_pending ()
    | Some e ->
      (if !cur_key <> Some e.key then begin
         emit_pending ();
         cur_key := Some e.key;
         floor_seen := false;
         pending := [ e ];
         (* the newest entry always counts towards the floor check *)
         (match min_retained_version with
         | Some m when e.version <= m -> floor_seen := true
         | _ -> ())
       end
       else if keep e then pending := e :: !pending);
      drain ()
  in
  drain ();
  of_list (List.rev !out)

let filter p it =
  let rec next () =
    match it () with
    | None -> None
    | Some e -> if p e then Some e else next ()
  in
  next

let upto ~high it =
  let stopped = ref false in
  fun () ->
    if !stopped then None
    else
      match it () with
      | Some e when String.compare e.key high <= 0 -> Some e
      | _ ->
        stopped := true;
        None
