open Evendb_util
open Evendb_storage
open Evendb_sstable
open Evendb_log
module K = Kv_iter

(* REMIX-style persistent sorted view of one funk.

   A funk's cold-scan path historically re-merged the funk log (fold +
   sort) with the sstable on every scan. The sorted view persists the
   outcome of that merge as a token sequence: walking the tokens in
   order visits every entry of sstable + covered log prefix in
   canonical {!Kv_iter.compare_entries} order, touching each source
   exactly once with a cursor instead of re-sorting.

   On-disk format (little-endian, varints as in {!Varint}):

   {v
     magic "EVVIEW02"                      8 bytes
     sst_entry_count                       varint   } identity of the
     sst_file_size                         varint   } sstable at build
     log_upto                              varint   covered log bytes
     log_crc                               u32 LE   masked CRC32C of log[0,log_upto)
     n_tokens                              varint
     token*                                varint each:
                                             0     = next sstable entry in order
                                             k > 0 = log record framed at byte k-1
     trailer_crc                           u32 LE   masked CRC32C of everything above
   v}

   Seek by rank: [parse] records the token index of every sstable
   token, so the [r]-th sstable entry's place in the merge order is one
   array read. A cursor asks {!Sstable.Reader.seek} for the rank [r] of
   the first sstable entry at or above the scan's low bound (one block
   read, found through the block index) and starts walking one token
   after the sstable token of rank [r - 1]: every token before that one
   sorts at or below an sstable key under [low]. The few log tokens
   between the two sstable tokens are skipped by key. A scan therefore
   costs the seek plus the tokens it walks; the caller stops pulling at
   its high bound or row limit.

   Views are derived data. [load] validates the trailer CRC, the
   sstable identity and a CRC over the covered log prefix; any
   mismatch yields [None] and the caller falls back to the merge path.
   That includes sidecars of an older format (a different magic): they
   are ignored until the funk's next view rebuild replaces them.
   [cursor] re-checks each log record's own frame CRC as it is read
   and raises {!Stale} on any disagreement mid-walk, so a view can
   never silently serve bytes the log no longer contains. Log records
   appended after the build (offsets >= log_upto) are folded, sorted
   and merged in at scan time — a view is useful until the uncovered
   suffix grows large, at which point the owner rebuilds it. *)

let magic = "EVVIEW02"

type t = {
  tokens : int array; (* 0 = sst; k > 0 = log offset k-1 *)
  sst_tokens : int array; (* token index of the sstable entry of each rank *)
  log_upto : int;
}

exception Stale

let token_count t = Array.length t.tokens
let covered_log_bytes t = t.log_upto

let add_u32 buf v =
  Buffer.add_int32_le buf v

let read_u32 s pos = String.get_int32_le s pos

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

let build env ~sst ~log_name ~view_name =
  let log_upto = try Env.size env log_name with Not_found -> 0 in
  let log_crc =
    if log_upto = 0 then Crc32c.string ""
    else Crc32c.string (Env.read_at env log_name ~off:0 ~len:log_upto)
  in
  (* Stable sort keeps equal (key, version, counter) triples in append
     order; ties between log and sstable go to the log. Either way the
     duplicates carry identical values (GV versions are unique per
     update), so tie order can never change scan results. *)
  let log_entries =
    List.stable_sort (fun (_, a) (_, b) -> K.compare_entries a b) (Log_file.Reader.entries env log_name)
  in
  let sst_it = Sstable.Reader.iter sst in
  let tbuf = Buffer.create 4096 in
  let n_tokens = ref 0 in
  let emit tok =
    Varint.write tbuf tok;
    incr n_tokens
  in
  let rec merge log_rest sst_head =
    match (log_rest, sst_head) with
    | [], None -> ()
    | [], Some _ ->
      emit 0;
      merge [] (sst_it ())
    | (off, _) :: rest, None ->
      emit (off + 1);
      merge rest None
    | (off, le) :: rest, Some se ->
      if K.compare_entries le se <= 0 then begin
        emit (off + 1);
        merge rest sst_head
      end
      else begin
        emit 0;
        merge log_rest (sst_it ())
      end
  in
  merge log_entries (sst_it ());
  let buf = Buffer.create (Buffer.length tbuf + 256) in
  Buffer.add_string buf magic;
  Varint.write buf (Sstable.Reader.entry_count sst);
  Varint.write buf (try Env.size env (Sstable.Reader.name sst) with Not_found -> 0);
  Varint.write buf log_upto;
  add_u32 buf (Crc32c.mask log_crc);
  Varint.write buf !n_tokens;
  Buffer.add_buffer buf tbuf;
  let body = Buffer.contents buf in
  add_u32 buf (Crc32c.mask (Crc32c.string body));
  let data = Buffer.contents buf in
  (* Atomic publication: the view either exists whole or not at all.
     The ".tmp" suffix puts interrupted builds under the scrubber's
     existing leftover-tmp sweep. *)
  Meta_file.publish env ~name:view_name data

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

(* Structural validation alone — is this file a well-formed view? —
   shared by [load] and the scrubber (which must flag corruption but
   not staleness: a stale view is valid derived data awaiting rebuild). *)
let parse s =
  try
    let n = String.length s in
    if n < String.length magic + 4 then raise Exit;
    if not (String.equal (String.sub s 0 (String.length magic)) magic) then raise Exit;
    let body_len = n - 4 in
    if Crc32c.mask (Crc32c.string (String.sub s 0 body_len)) <> read_u32 s body_len then raise Exit;
    let pos = ref (String.length magic) in
    let rd () =
      let v, p = Varint.read s !pos in
      pos := p;
      v
    in
    let sst_entry_count = rd () in
    let sst_file_size = rd () in
    let log_upto = rd () in
    let log_crc = read_u32 s !pos in
    pos := !pos + 4;
    let n_tokens = rd () in
    if n_tokens > body_len then raise Exit;
    let tokens = Array.init n_tokens (fun _ -> rd ()) in
    if !pos <> body_len || sst_entry_count > n_tokens then raise Exit;
    let sst_tokens = Array.make sst_entry_count 0 in
    let rank = ref 0 in
    Array.iteri
      (fun i tok ->
        if tok = 0 then begin
          if !rank >= sst_entry_count then raise Exit;
          sst_tokens.(!rank) <- i;
          incr rank
        end)
      tokens;
    if !rank <> sst_entry_count then raise Exit;
    Some (sst_entry_count, sst_file_size, log_crc, { tokens; sst_tokens; log_upto })
  with Exit | Invalid_argument _ -> None

let well_formed s = parse s <> None

let load env ~sst ~log_name ~view_name =
  match try Some (Env.read_all env view_name) with Not_found -> None with
  | None -> None
  | Some s -> (
    match parse s with
    | None -> None
    | Some (sst_entry_count, sst_file_size, log_crc, view) ->
      (* The view must describe *this* sstable and a prefix of *this*
         log. The sstable is immutable once published, so entry count
         plus file size pin its identity; the covered log prefix is
         re-checksummed once here (appends only extend the log, so a
         matching prefix stays matching until the file is replaced). *)
      let ok =
        try
          sst_entry_count = Sstable.Reader.entry_count sst
          && sst_file_size = Env.size env (Sstable.Reader.name sst)
          && Env.size env log_name >= view.log_upto
          &&
          let covered =
            if view.log_upto = 0 then "" else Env.read_at env log_name ~off:0 ~len:view.log_upto
          in
          Crc32c.mask (Crc32c.string covered) = log_crc
        with Not_found | Invalid_argument _ -> false
      in
      if ok then Some view else None)

(* ------------------------------------------------------------------ *)
(* Cursor                                                              *)

let cursor view env ~sst ~log_name ~low ~high : K.t =
  let covered =
    if view.log_upto = 0 then ""
    else
      try Env.read_at env log_name ~off:0 ~len:view.log_upto
      with Not_found | Invalid_argument _ -> raise Stale
  in
  let rank, sst_it = Sstable.Reader.seek sst low in
  let idx = ref (if rank = 0 then 0 else view.sst_tokens.(rank - 1) + 1) in
  let finished = ref false in
  let rec token_walk () =
    if !finished || !idx >= Array.length view.tokens then None
    else begin
      let tok = view.tokens.(!idx) in
      incr idx;
      let e =
        if tok = 0 then
          match sst_it () with
          | Some e -> e
          | None -> raise Stale
        else
          match Log_file.Record.decode covered ~pos:(tok - 1) with
          | Some (e, _) -> e
          | None -> raise Stale
      in
      if String.compare e.K.key low < 0 then token_walk ()
      else if String.compare e.K.key high > 0 then begin
        finished := true;
        None
      end
      else Some e
    end
  in
  (* Records appended after the build live past [log_upto]; they are
     few (the owner rebuilds once the suffix grows) so fold-and-sort
     here costs what the old merge path paid for the whole log. *)
  let suffix =
    if (try Env.size env log_name with Not_found -> 0) <= view.log_upto then K.of_list []
    else
      let entries =
        Log_file.Reader.fold ~lo:view.log_upto env log_name ~init:[] ~f:(fun acc _off e ->
            if String.compare low e.K.key <= 0 && String.compare e.K.key high <= 0 then e :: acc
            else acc)
      in
      K.of_list (List.stable_sort K.compare_entries entries)
  in
  K.merge [ token_walk; suffix ]
