type decision =
  | Already_cached
  | Admit of int list
  | Evict_other of int list
  | Skip

type t = {
  mutex : Mutex.t;
  budget : int;
  slack : int;
  decay_every : int;
  freq : (int, int) Hashtbl.t;
  cached_set : (int, int) Hashtbl.t; (* id -> weight *)
  mutable accesses : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
}

let create ~budget ~slack ?(decay_every = 10_000) () =
  if budget <= 0 then invalid_arg "Lfu.create: budget <= 0";
  {
    mutex = Mutex.create ();
    budget;
    slack;
    decay_every;
    freq = Hashtbl.create 256;
    cached_set = Hashtbl.create 256;
    accesses = 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let bump t id =
  let f = Option.value ~default:0 (Hashtbl.find_opt t.freq id) in
  Hashtbl.replace t.freq id (f + 1);
  t.accesses <- t.accesses + 1;
  if t.accesses >= t.decay_every then begin
    t.accesses <- 0;
    Hashtbl.iter (fun k v -> Hashtbl.replace t.freq k (v / 2)) t.freq
  end;
  f + 1

let freq_of t id = Option.value ~default:0 (Hashtbl.find_opt t.freq id)

(* Summed afresh on every question: the model keeps no running total. *)
let resident t = Hashtbl.fold (fun _ w acc -> acc + w) t.cached_set 0

(* Coldest cached chunk (lowest frequency) among those [skip] does not
   exclude. *)
let victim ?(skip = fun _ -> false) t =
  Hashtbl.fold
    (fun id _ best ->
      if skip id then best
      else begin
        let f = freq_of t id in
        match best with
        | Some (_, bf) when bf <= f -> best
        | _ -> Some (id, f)
      end)
    t.cached_set None

let insert t id weight =
  Hashtbl.remove t.cached_set id;
  Hashtbl.replace t.cached_set id weight

let evict t id =
  Hashtbl.remove t.cached_set id;
  t.eviction_count <- t.eviction_count + 1

(* Evict the coldest, one at a time, until within budget + slack. *)
let drain ?but t =
  let rec go acc =
    if resident t <= t.budget + t.slack then List.rev acc
    else
      match victim ~skip:(fun id -> Some id = but) t with
      | Some (vid, _) ->
        evict t vid;
        go (vid :: acc)
      | None -> List.rev acc
  in
  go []

let on_access t id ~weight =
  with_lock t (fun () ->
      let f = bump t id in
      if Hashtbl.mem t.cached_set id then begin
        t.hit_count <- t.hit_count + 1;
        match drain ~but:id t with [] -> Already_cached | vs -> Evict_other vs
      end
      else begin
        t.miss_count <- t.miss_count + 1;
        match victim t with
        | None ->
          insert t id weight;
          Admit []
        | Some (_, vf) when f < vf && resident t + weight + t.slack > t.budget -> Skip
        | Some _ ->
          (* Pick victims one coldest at a time, without evicting, until
             the newcomer fits; every one must be under half its count. *)
          let rec plan picked freed =
            if resident t - freed + weight <= t.budget then Some (List.rev picked)
            else
              match victim ~skip:(fun id -> List.mem id picked) t with
              | Some (vid, vf) when 2 * vf < f -> plan (vid :: picked) (freed + Hashtbl.find t.cached_set vid)
              | _ -> None
          in
          (match plan [] 0 with
          | None -> Skip
          | Some vs ->
            List.iter (evict t) vs;
            insert t id weight;
            Admit vs)
      end)

let is_cached t id = with_lock t (fun () -> Hashtbl.mem t.cached_set id)

let set_weight t id weight =
  with_lock t (fun () -> if Hashtbl.mem t.cached_set id then Hashtbl.replace t.cached_set id weight)

let force_insert t id ~weight =
  with_lock t (fun () ->
      insert t id weight;
      drain ~but:id t)

let overflow t = with_lock t (fun () -> drain t)

let remove t id =
  with_lock t (fun () ->
      Hashtbl.remove t.cached_set id;
      Hashtbl.remove t.freq id)

let transfer t ~old_id ~new_ids =
  with_lock t (fun () ->
      let f = freq_of t old_id in
      let was_cached = Hashtbl.mem t.cached_set old_id in
      Hashtbl.remove t.cached_set old_id;
      Hashtbl.remove t.freq old_id;
      List.iter
        (fun (id, weight) ->
          Hashtbl.replace t.freq id f;
          if was_cached then insert t id weight)
        new_ids)

let cached t =
  with_lock t (fun () -> Hashtbl.fold (fun id _ acc -> id :: acc) t.cached_set [])

let resident_bytes t = with_lock t (fun () -> resident t)
let frequency t id = with_lock t (fun () -> freq_of t id)
let drop_cached t id = with_lock t (fun () -> Hashtbl.remove t.cached_set id)
let hits t = with_lock t (fun () -> t.hit_count)
let misses t = with_lock t (fun () -> t.miss_count)
let evictions t = with_lock t (fun () -> t.eviction_count)
