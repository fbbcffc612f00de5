(* BENCHMARK.json, the one list of the ledger's workloads and metrics:
   each metric's name, unit and direction, and for an end-to-end metric
   the bound by which it may get worse before a change counts as a
   regression. *)

module Json = Evendb_telemetry.Tiny_json

type metric = { name : string; unit_ : string; better : string; bound : float option }
type t = { workloads : string list; run_seconds : float; e2e : metric list; layer : metric list }

let field k j = Option.value ~default:Json.Null (Json.member k j)
let list j = Option.value ~default:[] (Json.to_list j)
let str j = Option.value ~default:"" (Json.to_string j)

let load_json file =
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | j -> j
  | exception (Sys_error msg | Json.Bad msg) ->
    Printf.eprintf "%s: %s\n" file msg;
    exit 2

let load file =
  let j = load_json file in
  let metrics key =
    List.map
      (fun m ->
        {
          name = str (field "name" m);
          unit_ = str (field "unit" m);
          better = str (field "better" m);
          bound = Json.to_float (field "bound" m);
        })
      (list (field key j))
  in
  {
    workloads = List.map (fun w -> str (field "name" w)) (list (field "workloads" j));
    run_seconds = Option.value ~default:10.0 (Json.to_float (field "run_seconds" j));
    e2e = metrics "end_to_end";
    layer = metrics "per_layer";
  }

let metrics t ~traced = if traced then t.layer else t.e2e

(* [values] in the spec's order. A metric the spec names but [values]
   lacks, or the reverse, means the two have drifted apart: exit 2. *)
let select t ~traced ~what values =
  let spec = metrics t ~traced in
  let missing = List.filter (fun m -> not (List.mem_assoc m.name values)) spec in
  let unlisted = List.filter (fun (n, _) -> not (List.exists (fun m -> m.name = n) spec)) values in
  if missing <> [] || unlisted <> [] then begin
    List.iter (fun m -> Printf.eprintf "%s: the spec names %s, which the ledger does not measure\n" what m.name) missing;
    List.iter (fun (n, _) -> Printf.eprintf "%s: the ledger measures %s, which the spec does not name\n" what n) unlisted;
    exit 2
  end;
  List.map (fun m -> (m, List.assoc m.name values)) spec
