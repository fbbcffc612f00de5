(* A fixed array of shards, each a lazily made cell under its own lock.
   A writer takes the shard its domain id picks, so two writer domains
   almost never share a lock; readers lock each shard in turn and fold.
   The array is fixed because domain ids grow without bound (every
   [Domain.spawn] takes a fresh one): keying a table by them would grow
   with every batch of worker domains. Two domains whose ids land on
   one shard share its lock and stay correct. *)

let n_shards = 8

type 'a shard = { lock : Mutex.t; mutable cell : 'a option }
type 'a t = { make : unit -> 'a; shards : 'a shard array }

let create make =
  { make; shards = Array.init n_shards (fun _ -> { lock = Mutex.create (); cell = None }) }

(* [f] takes its argument separately so a static [f] allocates no
   closure on the hot path. *)
let update t f x =
  let s = t.shards.((Domain.self () :> int) land (n_shards - 1)) in
  Mutex.lock s.lock;
  let c =
    match s.cell with
    | Some c -> c
    | None ->
      let c = t.make () in
      s.cell <- Some c;
      c
  in
  match f c x with
  | () -> Mutex.unlock s.lock
  | exception e ->
    Mutex.unlock s.lock;
    raise e

let fold t f init =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      match s.cell with
      | None ->
        Mutex.unlock s.lock;
        acc
      | Some c -> (
        match f acc c with
        | acc ->
          Mutex.unlock s.lock;
          acc
        | exception e ->
          Mutex.unlock s.lock;
          raise e))
    init t.shards

let iter t f = fold t (fun () c -> f c) ()
