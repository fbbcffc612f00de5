(* Space-Saving (Metwally, Agrawal & El Abbadi, 2005): a fixed set of m
   monitored keys. A hit bumps the key's count; a miss evicts the
   current minimum and adopts its count as the newcomer's
   overestimation error. Any key with true frequency > N/m is
   guaranteed to be monitored, and every count overestimates the truth
   by at most its recorded error (itself <= N/m).

   One sketch per domain shard (Per_domain), so client domains feeding
   the same store do not share a lock per op; [entries] merges them. *)

type cell = { mutable count : int; mutable err : int }
type sketch = { cells : (string, cell) Hashtbl.t; mutable total : int }
type t = { capacity : int; shards : sketch Per_domain.t }

let create ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Topk.create: capacity <= 0";
  {
    capacity;
    shards = Per_domain.create (fun () -> { cells = Hashtbl.create capacity; total = 0 });
  }

let capacity t = t.capacity

(* Linear min scan on eviction: under the skewed traffic this sketch
   exists to measure, almost every observation hits a monitored key and
   stays O(1); the O(m) path is the rare miss. *)
let evict_min sk =
  let victim = ref None in
  Hashtbl.iter
    (fun k c ->
      match !victim with
      | Some (_, vc) when vc.count <= c.count -> ()
      | _ -> victim := Some (k, c))
    sk.cells;
  match !victim with
  | Some (k, c) ->
    Hashtbl.remove sk.cells k;
    c.count
  | None -> 0

let observe ?(weight = 1) t key =
  if weight > 0 then
    Per_domain.update t.shards
      (fun sk key ->
        sk.total <- sk.total + weight;
        match Hashtbl.find_opt sk.cells key with
        | Some c -> c.count <- c.count + weight
        | None ->
          let floor = if Hashtbl.length sk.cells >= t.capacity then evict_min sk else 0 in
          Hashtbl.replace sk.cells key { count = floor + weight; err = floor })
      key

let total t = Per_domain.fold t.shards (fun n sk -> n + sk.total) 0

(* Merging shards: a key a full shard does not monitor occurred there at most that shard's
   minimum count, so the merged estimate adds that minimum to the
   key's count and to its error; a shard with room saw every key it
   does not hold zero times. The merged counts still bracket the truth,
   with errors summing to at most N/m, and the heaviest m are kept; a
   single shard merges to itself. *)
let entries t =
  let shards =
    Per_domain.fold t.shards
      (fun acc sk ->
        if sk.total = 0 then acc
        else
          let cells = Hashtbl.fold (fun k c acc -> (k, c.count, c.err) :: acc) sk.cells [] in
          let floor =
            if Hashtbl.length sk.cells < t.capacity then 0
            else List.fold_left (fun m (_, c, _) -> min m c) max_int cells
          in
          (cells, floor) :: acc)
      []
  in
  let floors = List.fold_left (fun acc (_, f) -> acc + f) 0 shards in
  let merged = Hashtbl.create t.capacity in
  List.iter
    (fun (cells, floor) ->
      List.iter
        (fun (k, c, e) ->
          let hi, err = Option.value ~default:(floors, floors) (Hashtbl.find_opt merged k) in
          Hashtbl.replace merged k (hi + c - floor, err + e - floor))
        cells)
    shards;
  Hashtbl.fold (fun k (hi, err) acc -> (k, hi - err, hi) :: acc) merged []
  |> List.sort (fun (ka, _, ha) (kb, _, hb) ->
         match compare hb ha with 0 -> String.compare ka kb | c -> c)
  |> List.filteri (fun i _ -> i < t.capacity)

let reset t =
  Per_domain.iter t.shards (fun sk ->
      Hashtbl.reset sk.cells;
      sk.total <- 0)
