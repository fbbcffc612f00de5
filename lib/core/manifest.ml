open Evendb_util
open Evendb_storage

type t = {
  next_id : int;
  live : int list;
}

let file_name = "MANIFEST"

let store ?(name = file_name) env t =
  let buf = Buffer.create 64 in
  Varint.write buf t.next_id;
  Varint.write buf (List.length t.live);
  List.iter (fun id -> Varint.write buf id) t.live;
  Meta_file.store env ~name (Buffer.contents buf)

let load ?(name = file_name) env =
  Meta_file.decode env ~name (fun payload ->
      let next_id, pos = Varint.read payload 0 in
      let n, pos = Varint.read payload pos in
      let rec ids acc pos = function
        | 0 -> List.rev acc
        | k ->
          let id, pos = Varint.read payload pos in
          ids (id :: acc) pos (k - 1)
      in
      { next_id; live = ids [] pos n })
