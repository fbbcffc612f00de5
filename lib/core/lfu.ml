type decision =
  | Already_cached
  | Admit of Chunk.t option
  | Evict_other of Chunk.t
  | Skip

type t = {
  mutex : Mutex.t;
  capacity : int;
  decay_every : int;
  cached_set : (int, Chunk.t) Hashtbl.t; (* by chunk id: victim ties break by its order *)
  mutable accesses : int;
  mutable epoch : int; (* halvings so far *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
}

let create ~capacity ?(decay_every = 10_000) () =
  if capacity <= 0 then invalid_arg "Lfu.create: capacity <= 0";
  {
    mutex = Mutex.create ();
    capacity;
    decay_every;
    cached_set = Hashtbl.create 256;
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

(* Coldest cached chunk (lowest frequency), excluding [but]. *)
let victim ?but t =
  Hashtbl.fold
    (fun id c best ->
      if Some id = but then best
      else begin
        let f = decayed t c in
        match best with
        | Some (_, bf) when bf <= f -> best
        | _ -> Some (c, f)
      end)
    t.cached_set None

let evict t c =
  Hashtbl.remove t.cached_set (Chunk.id c);
  t.eviction_count <- t.eviction_count + 1

let on_access t c =
  with_lock t (fun () ->
      let id = Chunk.id c in
      let f = bump t c in
      if Hashtbl.mem t.cached_set id then begin
        t.hit_count <- t.hit_count + 1;
        (* Splits can leave the cache transiently over capacity
           (children inherit the parent's cached status); drain the
           excess here. *)
        if Hashtbl.length t.cached_set > t.capacity then begin
          match victim ~but:id t with
          | Some (v, _) ->
            evict t v;
            Evict_other v
          | None -> Already_cached
        end
        else Already_cached
      end
      else begin
        t.miss_count <- t.miss_count + 1;
        if Hashtbl.length t.cached_set < t.capacity then begin
          Hashtbl.replace t.cached_set id c;
          Admit None
        end
        else
          match victim t with
          | Some (v, vf) when f > vf ->
            evict t v;
            Hashtbl.replace t.cached_set id c;
            Admit (Some v)
          | _ -> Skip
      end)

let is_cached t c = with_lock t (fun () -> Hashtbl.mem t.cached_set (Chunk.id c))

let force_insert t c =
  with_lock t (fun () ->
      let id = Chunk.id c in
      if Hashtbl.mem t.cached_set id then None
      else begin
        Hashtbl.replace t.cached_set id c;
        if Hashtbl.length t.cached_set > t.capacity then begin
          match victim ~but:id t with
          | Some (v, _) ->
            evict t v;
            Some v
          | None -> None
        end
        else None
      end)

let forget t c =
  Hashtbl.remove t.cached_set (Chunk.id c);
  Chunk.set_freq c Chunk.no_freq

let remove t c = with_lock t (fun () -> forget t c)

let transfer t c ~into =
  with_lock t (fun () ->
      let was_cached = Hashtbl.mem t.cached_set (Chunk.id c) in
      forget t c;
      if was_cached then List.iter (fun n -> Hashtbl.replace t.cached_set (Chunk.id n) n) into)

let cached t = with_lock t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.cached_set [])
let frequency t c = with_lock t (fun () -> decayed t c)
let drop_cached t c = with_lock t (fun () -> Hashtbl.remove t.cached_set (Chunk.id c))
let hits t = with_lock t (fun () -> t.hit_count)
let misses t = with_lock t (fun () -> t.miss_count)
let evictions t = with_lock t (fun () -> t.eviction_count)
