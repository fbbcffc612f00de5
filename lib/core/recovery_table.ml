open Evendb_util
open Evendb_storage

(* Sorted association list epoch -> last checkpointed seq; tiny (one row
   per crash survived). *)
type t = (int * int) list

let file_name = "RECOVERY_TABLE"
let empty = []

let add t ~epoch ~last_seq = (epoch, last_seq) :: List.remove_assoc epoch t

let last_seq t ~epoch = List.assoc_opt epoch t

let is_visible t ~current_epoch version =
  let e = Version.epoch version in
  if e = current_epoch then true
  else
    match last_seq t ~epoch:e with
    | None -> false
    | Some limit -> Version.seq version <= limit

let max_epoch t = List.fold_left (fun acc (e, _) -> max acc e) (-1) t

(* On-disk: [n] rows of [epoch] [seq+1] (shifted so -1 encodes as 0),
   varints, with a trailing CRC over the payload. *)
let store ?(name = file_name) env t =
  let buf = Buffer.create 64 in
  Varint.write buf (List.length t);
  List.iter
    (fun (e, s) ->
      Varint.write buf e;
      Varint.write buf (s + 1))
    t;
  Meta_file.store env ~name (Buffer.contents buf)

let load ?(name = file_name) env =
  Option.value ~default:empty
    (Meta_file.decode env ~name (fun payload ->
         let n, pos = Varint.read payload 0 in
         let rec rows acc pos = function
           | 0 -> List.rev acc
           | k ->
             let e, pos = Varint.read payload pos in
             let s, pos = Varint.read payload pos in
             rows ((e, s - 1) :: acc) pos (k - 1)
         in
         rows [] pos n))
