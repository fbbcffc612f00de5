open Evendb_util

type node = {
  mutable entry : Kv_iter.entry;
  mutable next : int; (* array index; -1 terminates the list *)
}

type t = {
  mutable arr : node array;
  mutable size : int; (* allocated cells *)
  sorted : int; (* length of the sorted prefix *)
  mutable head : int; (* first cell in list order; -1 when empty *)
  mutex : Mutex.t; (* serializes puts; readers never take it *)
  mutable bytes : int;
  built_bytes : int; (* [bytes] when the sorted prefix was built *)
  mutable appended : int;
  mutable tombs : int; (* live tombstone cells (merge/GC trigger) *)
}

let entry_bytes (e : Kv_iter.entry) =
  String.length e.key + (match e.value with Some v -> String.length v | None -> 0) + 64

let dummy_entry : Kv_iter.entry = { key = ""; value = None; version = 0; counter = 0 }

let of_sorted entries =
  let n = List.length entries in
  let arr = Array.make (max 16 (2 * n)) { entry = dummy_entry; next = -1 } in
  let bytes = ref 0 in
  let prev = ref None in
  List.iteri
    (fun i e ->
      (match !prev with
      | Some p when Kv_iter.compare_entries p e >= 0 ->
        invalid_arg
          (Printf.sprintf "Munk.of_sorted: entries out of order (%S v%d c%d >= %S v%d c%d)"
             p.key p.version p.counter e.key e.version e.counter)
      | _ -> ());
      prev := Some e;
      arr.(i) <- { entry = e; next = (if i = n - 1 then -1 else i + 1) };
      bytes := !bytes + entry_bytes e)
    entries;
  {
    arr;
    size = n;
    sorted = n;
    head = (if n = 0 then -1 else 0);
    mutex = Mutex.create ();
    bytes = !bytes;
    built_bytes = !bytes;
    appended = 0;
    tombs = List.length (List.filter (fun (e : Kv_iter.entry) -> e.value = None) entries);
  }

let of_iter it = of_sorted (Kv_iter.to_list it)

let entry_count t = t.size
let appended_count t = t.appended
let byte_size t = t.bytes
let built_bytes t = t.built_bytes
let tombstone_count t = t.tombs

(* Last prefix index whose entry is strictly below [e] in canonical
   order; -1 if none. The prefix is canonically sorted, so plain binary
   search applies. *)
let prefix_predecessor t (e : Kv_iter.entry) =
  let arr = t.arr in
  let lo = ref 0 and hi = ref (t.sorted - 1) and result = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if Kv_iter.compare_entries arr.(mid).entry e < 0 then begin
      result := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !result

(* Walk the bypass path from the prefix predecessor to the exact list
   position of [e]: returns (pred, succ) such that pred.entry < e <=
   succ.entry in canonical order (-1 for list head / tail). *)
let find_position t e =
  let arr = t.arr in
  let start = prefix_predecessor t e in
  let pred = ref start in
  let cur = ref (if start < 0 then t.head else arr.(start).next) in
  let continue = ref true in
  while !continue && !cur >= 0 do
    if Kv_iter.compare_entries arr.(!cur).entry e < 0 then begin
      pred := !cur;
      cur := arr.(!cur).next
    end
    else continue := false
  done;
  (!pred, !cur)

let grow t =
  let cap = 2 * Array.length t.arr in
  let arr = Array.make cap t.arr.(0) in
  Array.blit t.arr 0 arr 0 t.size;
  (* Nodes are shared by reference, so readers traversing the old array
     observe the same cells; only the container is replaced. Readers
     that encounter an index beyond their captured array re-fetch
     [t.arr] (see [node_at]): the writer installs the grown array
     before publishing any index into it. *)
  t.arr <- arr

(* Lock-free read of cell [i]: a concurrent put may have published an
   index that only exists in the freshly grown array. *)
let rec node_at t arr i =
  if i < Array.length arr then arr.(i)
  else begin
    Domain.cpu_relax ();
    node_at t t.arr i
  end

let put t ?(may_discard = fun ~old_version:_ ~new_version:_ -> false) (e : Kv_iter.entry) =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let pred, succ = find_position t e in
      let overwrote =
        succ >= 0
        && begin
             let old = t.arr.(succ).entry in
             String.equal old.key e.key
             && Kv_iter.entry_newer e old
             && may_discard ~old_version:old.version ~new_version:e.version
           end
      in
      if overwrote then begin
        let node = t.arr.(succ) in
        t.bytes <- t.bytes - entry_bytes node.entry + entry_bytes e;
        t.tombs <-
          t.tombs
          + (if e.value = None then 1 else 0)
          - (if node.entry.value = None then 1 else 0);
        (* Single pointer store: readers see either the old or the new
           entry, both internally consistent. *)
        node.entry <- e
      end
      else begin
        if t.size = Array.length t.arr then grow t;
        let idx = t.size in
        t.arr.(idx) <- { entry = e; next = succ };
        t.size <- idx + 1;
        (* Publish after the cell is fully initialized. *)
        if pred < 0 then t.head <- idx else t.arr.(pred).next <- idx;
        t.bytes <- t.bytes + entry_bytes e;
        t.appended <- t.appended + 1;
        if e.value = None then t.tombs <- t.tombs + 1
      end)

let find_latest t ?(max_version = max_int) key =
  let arr = t.arr in
  (* Position just before the first entry of [key] (which, canonically,
     is the newest version). *)
  let probe : Kv_iter.entry = { key; value = None; version = max_int; counter = max_int } in
  let start = prefix_predecessor t probe in
  let cur = ref (if start < 0 then t.head else (node_at t arr start).next) in
  let result = ref None in
  (try
     while !cur >= 0 do
       let node = node_at t arr !cur in
       let e = node.entry in
       let c = String.compare e.key key in
       if c > 0 then raise Exit
       else if c = 0 && e.version <= max_version then begin
         result := Some e;
         raise Exit
       end
       else cur := node.next
     done
   with Exit -> ());
  !result

let iter_from t start_idx stop_after =
  let arr = t.arr in
  let cur = ref start_idx in
  fun () ->
    if !cur < 0 then None
    else begin
      let node = node_at t arr !cur in
      let e = node.entry in
      match stop_after with
      | Some high when String.compare e.Kv_iter.key high > 0 ->
        cur := -1;
        None
      | _ ->
        cur := node.next;
        Some e
    end

let iter t = iter_from t t.head None

let iter_range t ~low ~high =
  let probe : Kv_iter.entry = { key = low; value = None; version = max_int; counter = max_int } in
  let p = prefix_predecessor t probe in
  let arr = t.arr in
  let start = if p < 0 then t.head else (node_at t arr p).next in
  (* Skip any bypass entries still below [low]. *)
  let cur = ref start in
  let continue = ref true in
  while !continue && !cur >= 0 do
    let node = node_at t arr !cur in
    if String.compare node.entry.key low < 0 then cur := node.next else continue := false
  done;
  iter_from t !cur (Some high)

(* Charged to the calling op's attribution frame when a put pays for
   rebalance inline (Attr.timed is free off the op hot path). *)
let rebalance t ~min_retained_version =
  Evendb_obs.Attr.timed Evendb_obs.Attr.Rebalance (fun () ->
      of_iter (Kv_iter.compact ?min_retained_version (iter t)))

(* Accumulate into the left half until half the bytes are placed, then
   switch — but only between distinct keys, so all versions of the
   boundary key stay on one side. *)
let split_list entries =
  let total = List.fold_left (fun acc e -> acc + entry_bytes e) 0 entries in
  let rec assign acc_bytes last_left left = function
    | [] -> (List.rev left, [])
    | (e : Kv_iter.entry) :: rest ->
      let same = match last_left with Some k -> String.equal k e.key | None -> false in
      if acc_bytes * 2 < total || same || last_left = None then
        assign (acc_bytes + entry_bytes e) (Some e.key) (e :: left) rest
      else (List.rev left, e :: rest)
  in
  assign 0 None [] entries

let split_entries t ~min_retained_version =
  split_list (Kv_iter.to_list (Kv_iter.compact ?min_retained_version (iter t)))
