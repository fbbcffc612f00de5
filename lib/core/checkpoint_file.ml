open Evendb_util
open Evendb_storage

let file_name = "CHECKPOINT"

let store ?(name = file_name) env ~version =
  let buf = Buffer.create 16 in
  Varint.write buf version;
  Meta_file.store env ~name (Buffer.contents buf)

let load ?(name = file_name) env =
  Meta_file.decode env ~name (fun payload -> fst (Varint.read payload 0))
