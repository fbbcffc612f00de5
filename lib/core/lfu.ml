type decision =
  | Already_cached
  | Admit of Chunk.t list
  | Evict_other of Chunk.t list
  | Skip

(* A cached chunk and the bytes its munk is charged for. *)
type entry = { chunk : Chunk.t; mutable weight : int }

type t = {
  mutex : Mutex.t;
  budget : int;
  slack : int;
  decay_every : int;
  cached_set : (int, entry) Hashtbl.t; (* by chunk id: victim ties break by its order *)
  mutable resident : int; (* sum of the cached entries' weights *)
  mutable accesses : int;
  mutable epoch : int; (* halvings so far *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
}

let create ~budget ~slack ?(decay_every = 10_000) () =
  if budget <= 0 then invalid_arg "Lfu.create: budget <= 0";
  if slack < 0 then invalid_arg "Lfu.create: slack < 0";
  {
    mutex = Mutex.create ();
    budget;
    slack;
    decay_every;
    cached_set = Hashtbl.create 256;
    resident = 0;
    accesses = 0;
    epoch = 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Halving is lazy: a count written at epoch [e] is read at [t.epoch]
   shifted right once per missed epoch — exactly that many [v / 2]
   steps, as if every count had been swept at each halving. *)
let decayed t c =
  let { Chunk.count; epoch } = Chunk.freq c in
  let missed = t.epoch - epoch in
  if missed >= Sys.int_size then 0 else count lsr missed

(* Returns the bumped count before any halving this access triggers:
   the admission below compares it with the already-halved victims. *)
let bump t c =
  let f = decayed t c + 1 in
  Chunk.set_freq c { count = f; epoch = t.epoch };
  t.accesses <- t.accesses + 1;
  if t.accesses >= t.decay_every then begin
    t.accesses <- 0;
    t.epoch <- t.epoch + 1
  end;
  f

(* Coldest cached entry (lowest frequency). *)
let coldest t =
  Hashtbl.fold
    (fun _ e best ->
      let f = decayed t e.chunk in
      match best with Some (_, bf) when bf <= f -> best | _ -> Some (e, f))
    t.cached_set None

(* Cached entries other than [but], coldest first; equal frequencies
   keep the table's order, so the head is {!coldest}. *)
let by_coldness ?but t =
  Hashtbl.fold
    (fun id e acc -> if Some id = but then acc else (e, decayed t e.chunk) :: acc)
    t.cached_set []
  |> List.rev
  |> List.stable_sort (fun (_, a) (_, b) -> compare a b)

let drop t id =
  match Hashtbl.find_opt t.cached_set id with
  | Some e ->
    Hashtbl.remove t.cached_set id;
    t.resident <- t.resident - e.weight
  | None -> ()

let add t c weight =
  drop t (Chunk.id c);
  Hashtbl.replace t.cached_set (Chunk.id c) { chunk = c; weight };
  t.resident <- t.resident + weight

let evict t e =
  drop t (Chunk.id e.chunk);
  t.eviction_count <- t.eviction_count + 1;
  e.chunk

(* Evict the coldest entries other than [but] until resident bytes are
   back within [budget + slack]. *)
let drain ?but t =
  if t.resident <= t.budget + t.slack then []
  else begin
    let rec go acc = function
      | (e, _) :: rest when t.resident > t.budget + t.slack -> go (evict t e :: acc) rest
      | _ -> List.rev acc
    in
    go [] (by_coldness ?but t)
  end

(* The coldest entries whose eviction brings [resident + weight] within
   the budget, each less than half as hot as [f]; [None] if those are
   not enough. Half, not merely colder: chunks about as warm as each
   other would otherwise take turns, each access to the last one
   evicted tipping it over the coldest resident and paying a load.
   A count halves once per decay epoch, so the victim must be a whole
   epoch behind. *)
let victims_for t ~f ~weight =
  let rec go acc freed = function
    | _ when t.resident - freed + weight <= t.budget -> Some (List.rev acc)
    | (e, vf) :: rest when 2 * vf < f -> go (e :: acc) (freed + e.weight) rest
    | _ -> None
  in
  go [] 0 (by_coldness t)

let on_access t c ~weight =
  with_lock t (fun () ->
      let id = Chunk.id c in
      let f = bump t c in
      if Hashtbl.mem t.cached_set id then begin
        t.hit_count <- t.hit_count + 1;
        (* Rebalances, splits and merges re-weigh munks in place and
           can leave the cache over its band; drain the excess here. *)
        match drain ~but:id t with [] -> Already_cached | vs -> Evict_other vs
      end
      else begin
        t.miss_count <- t.miss_count + 1;
        (* Spare bytes are a free pass only while a chunk's worth of
           them would be left: near the budget, a chunk colder than the
           coldest munk stays out, so it cannot take room a warmer one
           will want back. *)
        let admit victims =
          let evicted = List.map (evict t) victims in
          add t c weight;
          Admit evicted
        in
        match coldest t with
        | None -> admit []
        | Some (_, vf) when f < vf && t.resident + weight + t.slack > t.budget -> Skip
        | Some _ when t.resident + weight <= t.budget -> admit []
        | Some (_, vf) when 2 * vf >= f ->
          (* No room, and not even the coldest munk would give way. *)
          Skip
        | Some _ -> (
          match victims_for t ~f ~weight with None -> Skip | Some vs -> admit vs)
      end)

let is_cached t c = with_lock t (fun () -> Hashtbl.mem t.cached_set (Chunk.id c))

let set_weight t c weight =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.cached_set (Chunk.id c) with
      | Some e ->
        t.resident <- t.resident + weight - e.weight;
        e.weight <- weight
      | None -> ())

let force_insert t c ~weight =
  with_lock t (fun () ->
      add t c weight;
      drain ~but:(Chunk.id c) t)

let forget t c =
  drop t (Chunk.id c);
  Chunk.set_freq c Chunk.no_freq

let remove t c = with_lock t (fun () -> forget t c)

let transfer t c ~into =
  with_lock t (fun () ->
      let was_cached = Hashtbl.mem t.cached_set (Chunk.id c) in
      forget t c;
      if was_cached then List.iter (fun (n, weight) -> add t n weight) into)

let overflow t = with_lock t (fun () -> drain t)
let cached t = with_lock t (fun () -> Hashtbl.fold (fun _ e acc -> e.chunk :: acc) t.cached_set [])
let resident_bytes t = with_lock t (fun () -> t.resident)
let budget t = t.budget
let frequency t c = with_lock t (fun () -> decayed t c)
let drop_cached t c = with_lock t (fun () -> drop t (Chunk.id c))
let hits t = with_lock t (fun () -> t.hit_count)
let misses t = with_lock t (fun () -> t.miss_count)
let evictions t = with_lock t (fun () -> t.eviction_count)
