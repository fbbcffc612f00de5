open Evendb_util

let crc_to_string (crc : int32) =
  String.init 4 (fun i -> Char.chr (Int32.to_int (Int32.shift_right_logical crc (8 * i)) land 0xff))

let crc_of_string s pos =
  let b i = Int32.of_int (Char.code s.[pos + i]) in
  Int32.logor (b 0)
    (Int32.logor
       (Int32.shift_left (b 1) 8)
       (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))

let publish env ~name data =
  let tmp = name ^ ".tmp" in
  let file = Env.create env tmp in
  try
    Env.append file data;
    Env.fsync file;
    Env.close_file file;
    Env.rename env ~old_name:tmp ~new_name:name
  with exn ->
    (try Env.close_file file with _ -> ());
    (try Env.delete env tmp with _ -> ());
    raise exn

let store env ~name payload = publish env ~name (payload ^ crc_to_string (Crc32c.string payload))

let corrupt env ~name detail =
  Env.note_corruption env;
  Io_error.raise_corruption ~file:name ~detail

let load env ~name =
  if not (Env.exists env name) then None
  else begin
    let data = Env.read_all env name in
    let len = String.length data - 4 in
    if len < 0 then corrupt env ~name "truncated";
    let payload = String.sub data 0 len in
    if Crc32c.string payload <> crc_of_string data len then corrupt env ~name "bad checksum";
    Some payload
  end

let decode env ~name parse =
  Option.map
    (fun payload ->
      try parse payload with Invalid_argument _ -> corrupt env ~name "malformed payload")
    (load env ~name)
