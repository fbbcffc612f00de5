(* What the store must hold, and the untimed checks against it.

   [base] holds the value every key had when the measured phase began.
   [acked] holds, for each client of the phase, the last value it put
   per key. A key some client acked must read as one of the clients'
   last acked values (with one client, exactly its own); any other key
   must read as its base value or be absent. *)

open Evendb_ycsb

type table = (string, string) Hashtbl.t
type t = { base : table; acked : table list }

type recorder = {
  engine : Engine.t;
  tables : unit -> table list;  (** one per domain that put *)
  live_bytes : unit -> int;  (** key and value bytes of [base] and the keys the puts added *)
}

(* [engine] with every acknowledged put recorded in a table of the
   domain that made it, so that each client domain [Runner.run] spawns
   gets its own table. The recording runs inside the op's timed
   interval; it is a hash-table update. Every value has the same length,
   so only a put of a key new to [base] and its table changes the live
   bytes; only single-client workloads insert, so no two clients add
   the same key. *)
let recording ~base (engine : Engine.t) =
  let lock = Mutex.create () and tables = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let t = Hashtbl.create 4096 in
        Mutex.protect lock (fun () -> tables := t :: !tables);
        t)
  in
  let base_bytes = Hashtbl.fold (fun k v acc -> acc + String.length k + String.length v) base 0 in
  let fresh = Atomic.make 0 in
  let put k v =
    engine.Engine.put k v;
    let t = Domain.DLS.get key in
    if not (Hashtbl.mem t k || Hashtbl.mem base k) then
      ignore (Atomic.fetch_and_add fresh (String.length k + String.length v));
    Hashtbl.replace t k v
  in
  {
    engine = { engine with Engine.put };
    tables = (fun () -> Mutex.protect lock (fun () -> !tables));
    live_bytes = (fun () -> base_bytes + Atomic.get fresh);
  }

let expected t key =
  match List.filter_map (fun a -> Hashtbl.find_opt a key) t.acked with
  | [] -> Option.to_list (Hashtbl.find_opt t.base key)
  | vs -> vs

(* Every key the shadow knows, in key order, with the values it may
   hold. *)
let expected_all t =
  let keys = Hashtbl.copy t.base in
  List.iter (Hashtbl.iter (fun k v -> Hashtbl.replace keys k v)) t.acked;
  Hashtbl.fold (fun k _ acc -> (k, expected t k) :: acc) keys []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Every shadowed key reads back as an allowed value, and scans are
   sorted, in range, within their limit and agree with the shadow.
   Returns a description of every mismatch. *)
let verify (engine : Engine.t) t =
  let want = expected_all t in
  let wrong = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> wrong := s :: !wrong) fmt in
  List.iter
    (fun (k, allowed) ->
      match engine.Engine.get k with
      | Some v when List.mem v allowed -> ()
      | _ -> fail "get %s: value is none of the acked ones" k)
    want;
  let check_scan ~low ~limit =
    let got = engine.Engine.scan ~low ~high:Workload.key_space_high ~limit in
    let rec walk got want =
      match (got, want) with
      | [], _ -> ()
      | (k, _) :: _, [] -> fail "scan from %s: extra key %s" low k
      | (k, v) :: got', (k', allowed) :: want' ->
        if k <> k' then fail "scan from %s: key %s where %s was expected" low k k'
        else if not (List.mem v allowed) then fail "scan from %s: wrong value for %s" low k
        else walk got' want'
    in
    let want = List.filter (fun (k, _) -> k >= low) want in
    let expect = min limit (List.length want) in
    if List.length got <> expect then
      fail "scan from %s limit %d: %d rows, %d expected" low limit (List.length got) expect;
    walk got want
  in
  check_scan ~low:"" ~limit:max_int;
  (match List.nth_opt want (List.length want / 2) with
  | Some (mid, _) -> check_scan ~low:mid ~limit:100
  | None -> ());
  List.rev !wrong
