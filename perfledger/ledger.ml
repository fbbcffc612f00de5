(* The performance ledger.

     ledger.exe run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
                    [--repeat N] [--smoke] [--out FILE] [--spec FILE]
     ledger.exe compare [--spec FILE] OLD NEW
     ledger.exe check [--spec FILE] FILE
     ledger.exe inputs

   [run] prints one "workload metric value unit" line per metric of the
   spec (BENCHMARK.json), writes the ledger file, and ends with one JSON
   line: {"correct", "attempted", "failed", "metrics"}. With one workload
   the metric keys are bare names, otherwise "workload/metric". It exits
   1 on any wrong answer or failed op, and 2 if a workload's inputs are
   not the pinned ones. *)

open Cmdliner
module Json = Evendb_telemetry.Tiny_json
open Spec

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let jstr s = Printf.sprintf "%S" s

(* ------------------------------------------------------------------ *)
(* run *)

let check_inputs (w : Workloads.spec) =
  let got = Workloads.inputs_digest w in
  if got <> w.inputs then begin
    Printf.eprintf
      "%s: the generated inputs (digest %s at seed %d) are not the pinned ones (%s). The load generator \
       changed, so this is no longer the benchmark whose baseline was measured; a change that means to \
       move the workloads updates the digests `ledger.exe inputs` prints in perfledger/workloads.ml.\n"
      w.name got Workloads.reference_seed w.inputs;
    exit 2
  end

let run_cmd spec_file workloads seed seconds trace repeat smoke out =
  let spec = Spec.load spec_file in
  let specs =
    match workloads with
    | [] -> Workloads.all
    | names ->
      List.map
        (fun n ->
          match Workloads.find n with
          | Some s -> s
          | None ->
            Printf.eprintf "unknown workload %S; known: %s\n" n
              (String.concat ", " (List.map (fun s -> s.Workloads.name) Workloads.all));
            exit 2)
        names
  in
  List.iter check_inputs specs;
  let traced = trace = 1 in
  let seconds = Option.value ~default:spec.run_seconds seconds in
  let seconds = if smoke then seconds /. 20.0 else seconds in
  (* (workload, metric) -> values of every pass, newest first *)
  let runs = Hashtbl.create 64 in
  let per_workload = Hashtbl.create 8 in
  for _ = 1 to repeat do
    List.iter
      (fun (w : Workloads.spec) ->
        let r = Workloads.run w ~seed ~seconds ~traced ~smoke in
        let values =
          if traced then
            Layer_metrics.compute r.layer_sample ~rounds:r.rounds @ Micro.all ~quota:(if smoke then 0.02 else 0.1) ()
          else r.e2e
        in
        List.iter
          (fun (m, v) ->
            Printf.printf "%-18s %-34s %14.4f %s\n%!" w.name m.name v m.unit_;
            let key = (w.name, m.name) in
            Hashtbl.replace runs key (v :: Option.value ~default:[] (Hashtbl.find_opt runs key)))
          (Spec.select spec ~traced ~what:w.name values);
        let a, f, wr = Option.value ~default:(0, 0, []) (Hashtbl.find_opt per_workload w.name) in
        Hashtbl.replace per_workload w.name (a + r.attempted, f + r.failed, wr @ r.wrong);
        List.iter (fun s -> Printf.eprintf "%s: %s\n" w.name s) r.wrong)
      specs
  done;
  let totals (w : Workloads.spec) = Option.value ~default:(0, 0, []) (Hashtbl.find_opt per_workload w.name) in
  let values (w : Workloads.spec) m = List.rev (Option.value ~default:[] (Hashtbl.find_opt runs (w.name, m.name))) in
  Option.iter
    (fun file ->
      let workload_doc (w : Workloads.spec) =
        let a, f, wr = totals w in
        let metric m =
          let vs = values w m in
          Printf.sprintf "       %s: {\"value\": %s, \"unit\": %s, \"runs\": [%s]}" (jstr m.name)
            (num (Workloads.median vs)) (jstr m.unit_)
            (String.concat ", " (List.map num vs))
        in
        Printf.sprintf
          "    {\"name\": %s, \"attempted\": %d, \"failed\": %d, \"correct\": %b,\n     \"metrics\": {\n%s\n     }}"
          (jstr w.name) a f (wr = [])
          (String.concat ",\n" (List.map metric (Spec.metrics spec ~traced)))
      in
      let oc = open_out file in
      Printf.fprintf oc
        "{\n  \"seed\": %d,\n  \"seconds\": %s,\n  \"traced\": %b,\n  \"repeat\": %d,\n  \"smoke\": %b,\n  \"workloads\": [\n%s\n  ]\n}\n"
        seed (num seconds) traced repeat smoke
        (String.concat ",\n" (List.map workload_doc specs));
      close_out oc)
    out;
  let single = match specs with [ _ ] -> true | _ -> false in
  let line_metrics =
    List.concat_map
      (fun (w : Workloads.spec) ->
        List.map
          (fun m ->
            let key = if single then m.name else w.name ^ "/" ^ m.name in
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (jstr key) (num (Workloads.median (values w m))) (jstr m.unit_))
          (Spec.metrics spec ~traced))
      specs
  in
  let attempted, failed, wrong =
    List.fold_left (fun (a, f, wr) w -> let a', f', wr' = totals w in (a + a', f + f', wr @ wr')) (0, 0, []) specs
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (wrong = [])
    (max 1 attempted) failed (String.concat ", " line_metrics);
  if wrong <> [] || failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Reading ledger files *)

let is_traced l = Json.member "traced" l = Some (Json.Bool true)
let find_workload l name = List.find_opt (fun w -> str (field "name" w) = name) (list (field "workloads" l))
let find_metric w name = List.assoc_opt name (Option.value ~default:[] (Json.to_obj (field "metrics" w)))
let correct w = Json.member "correct" w = Some (Json.Bool true)
let failed w = Option.value ~default:0 (Json.to_int (field "failed" w))

let runs_of m =
  match Json.to_list (field "runs" m) with
  | Some rs -> List.filter_map Json.to_float rs
  | None -> Option.to_list (Json.to_float (field "value" m))

(* Quartiles as Python's statistics.quantiles(values, n=4) computes
   them (the "exclusive" method), which needs two values or more. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0)
    [ 1; 2; 3 ]

let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ -> (
    match quartiles xs with
    | [ q1; q2; q3 ] when q2 <> 0.0 -> (q3 -. q1) /. Float.abs q2
    | _ -> 0.0)

(* ------------------------------------------------------------------ *)
(* compare *)

(* Walks every workload and metric of the spec, so that a pair missing
   from either file, or a workload that answered wrongly or failed ops,
   is a failure rather than a silent skip. *)
let compare_cmd spec_file old_file new_file =
  let spec = Spec.load spec_file and old_l = Spec.load_json old_file and new_l = Spec.load_json new_file in
  let traced = is_traced new_l in
  if is_traced old_l <> traced then begin
    Printf.eprintf "%s and %s are not both traced or both untraced\n" old_file new_file;
    exit 2
  end;
  let regressed = ref 0 and problems = ref 0 in
  let problem fmt = Printf.ksprintf (fun s -> incr problems; Printf.printf "%s\n" s) fmt in
  Printf.printf "%-18s %-34s %14s %14s %9s %6s  %s\n" "workload" "metric" "old" "new" "delta" "bound" "verdict";
  List.iter
    (fun name ->
      match (find_workload old_l name, find_workload new_l name) with
      | None, _ -> problem "%-18s absent from %s" name old_file
      | _, None -> problem "%-18s absent from %s" name new_file
      | Some ow, Some nw ->
        List.iter
          (fun (file, w) ->
            if not (correct w) then problem "%-18s wrong answers in %s" name file;
            if failed w > 0 then problem "%-18s %d failed operations in %s" name (failed w) file)
          [ (old_file, ow); (new_file, nw) ];
        List.iter
          (fun m ->
            match (find_metric ow m.name, find_metric nw m.name) with
            | None, _ -> problem "%-18s %-34s absent from %s" name m.name old_file
            | _, None -> problem "%-18s %-34s absent from %s" name m.name new_file
            | Some om, Some nm ->
              let ov = Option.value ~default:0.0 (Json.to_float (field "value" om))
              and nv = Option.value ~default:0.0 (Json.to_float (field "value" nm)) in
              let rel = if ov = 0.0 then 0.0 else (nv -. ov) /. Float.abs ov in
              let verdict, bound =
                match m.bound with
                | Some bound ->
                  let worse = if m.better = "higher" then -.rel else rel in
                  let ors = runs_of om and nrs = runs_of nm in
                  let all_better =
                    ors <> [] && nrs <> []
                    &&
                    if m.better = "higher" then List.fold_left min infinity nrs > List.fold_left max neg_infinity ors
                    else List.fold_left max neg_infinity nrs < List.fold_left min infinity ors
                  in
                  let v =
                    if spread ors > bound || spread nrs > bound then if all_better then "improved" else "unresolved"
                    else if worse > bound then "regressed"
                    else if worse < -.bound then "improved"
                    else "unchanged"
                  in
                  (v, Printf.sprintf "%5.1f%%" (100.0 *. bound))
                | None -> ("no bound", "-")
              in
              if verdict = "regressed" then incr regressed;
              Printf.printf "%-18s %-34s %14.4f %14.4f %+8.1f%% %6s  %s\n" name m.name ov nv (100.0 *. rel) bound verdict)
          (Spec.metrics spec ~traced))
    spec.workloads;
  if !regressed > 0 || !problems > 0 then begin
    Printf.printf "%d regression(s), %d missing or failed\n" !regressed !problems;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd spec_file file =
  let spec = Spec.load spec_file and l = Spec.load_json file in
  let traced = is_traced l in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun name ->
      match find_workload l name with
      | None -> problem "workload %s is missing" name
      | Some w ->
        if not (correct w) then problem "%s: answers were wrong" name;
        if failed w > 0 then problem "%s: %d operations failed" name (failed w);
        List.iter
          (fun m ->
            match find_metric w m.name with
            | None -> problem "%s: metric %s is missing" name m.name
            | Some v -> (
              if str (field "unit" v) <> m.unit_ then
                problem "%s: %s has unit %S, spec says %S" name m.name (str (field "unit" v)) m.unit_;
              match Json.to_float (field "value" v) with
              | None -> problem "%s: %s has no value" name m.name
              | Some 0.0 when not traced -> problem "%s: end-to-end metric %s is zero" name m.name
              | Some _ -> ()))
          (Spec.metrics spec ~traced))
    spec.workloads;
  match List.rev !problems with
  | [] -> Printf.printf "%s: every %s metric of every workload present\n" file (if traced then "per-layer" else "end-to-end")
  | ps ->
    List.iter (Printf.printf "%s\n") ps;
    exit 1

(* ------------------------------------------------------------------ *)

let inputs_cmd () =
  List.iter (fun (w : Workloads.spec) -> Printf.printf "%-18s %s\n" w.name (Workloads.inputs_digest w)) Workloads.all

let spec_arg =
  Arg.(value & opt string "BENCHMARK.json" & info [ "spec" ] ~docv:"FILE" ~doc:"Benchmark spec with names, units and bounds.")

let run_term =
  let workloads =
    Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run (repeatable; default all seven).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed of the generated keys and values.") in
  let seconds =
    Arg.(value & opt (some float) None & info [ "seconds" ] ~doc:"Measured seconds per workload (default: the spec's run_seconds).")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", 0); ("1", 1) ]) 0
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: report the per-layer metrics of a traced run instead of the end-to-end ones.")
  in
  let repeat = Arg.(value & opt int 1 & info [ "repeat" ] ~doc:"Passes over the workloads; values are medians.") in
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"Each workload at 1/20 of its time and episode size, one set-up.") in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the ledger as JSON.") in
  Term.(const run_cmd $ spec_arg $ workloads $ seed $ seconds $ trace $ repeat $ smoke $ out)

let cmd =
  let file n = Arg.(required & pos n (some string) None & info [] ~docv:"FILE") in
  Cmd.group (Cmd.info "ledger" ~doc:"EvenDB performance ledger")
    [
      Cmd.v (Cmd.info "run" ~doc:"Run workloads and report their metrics") run_term;
      Cmd.v
        (Cmd.info "compare" ~doc:"Judge every metric of the spec in NEW against OLD and the spec's bounds")
        Term.(const compare_cmd $ spec_arg $ file 0 $ file 1);
      Cmd.v
        (Cmd.info "check" ~doc:"Confirm a ledger file carries every metric of the spec")
        Term.(const check_cmd $ spec_arg $ file 0);
      Cmd.v
        (Cmd.info "inputs" ~doc:"Print each workload's inputs digest at the reference seed, for pinning")
        Term.(const inputs_cmd $ const ());
    ]

let () = exit (Cmd.eval cmd)
