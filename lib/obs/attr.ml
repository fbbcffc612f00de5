(* Per-operation tail-latency attribution. See attr.mli for the model;
   the implementation notes here are about the hot path.

   One frame per domain, preallocated and reused: with_op flips it
   live, timed charges the outermost cause section into a small int
   array, and close folds the array into the calling domain's shard of
   the instance's totals (Per_domain), so client domains do not share a
   lock per op. Only slow ops take the instance mutex, for the ring.
   The frame is domain-local state, NOT instance state — leaf layers
   (Log_file, Munk) call [timed] without any handle, and whichever
   instance opened the frame receives the charge. *)

type cause =
  | Lock_wait
  | Log_append
  | Fsync
  | Disk_read
  | Rebalance
  | Compaction
  | Commit_wait
  | Cache_read
  | View_build
  | Repl_ship

let all_causes =
  [
    Lock_wait; Log_append; Fsync; Disk_read; Rebalance; Compaction; Commit_wait; Cache_read;
    View_build; Repl_ship;
  ]

let n_causes = 10

let cause_index = function
  | Lock_wait -> 0
  | Log_append -> 1
  | Fsync -> 2
  | Disk_read -> 3
  | Rebalance -> 4
  | Compaction -> 5
  | Commit_wait -> 6
  | Cache_read -> 7
  | View_build -> 8
  | Repl_ship -> 9

let cause_name = function
  | Lock_wait -> "lock_wait"
  | Log_append -> "log_append"
  | Fsync -> "fsync"
  | Disk_read -> "disk_read"
  | Rebalance -> "rebalance"
  | Compaction -> "compaction"
  | Commit_wait -> "commit_wait"
  | Cache_read -> "cache_read"
  | View_build -> "view_build"
  | Repl_ship -> "repl_ship"

let cause_of_index =
  [|
    Lock_wait; Log_append; Fsync; Disk_read; Rebalance; Compaction; Commit_wait; Cache_read;
    View_build; Repl_ship;
  |]

type kind = Put | Get | Delete | Scan

let n_kinds = 4
let kind_index = function Put -> 0 | Get -> 1 | Delete -> 2 | Scan -> 3
let kind_name = function Put -> "put" | Get -> "get" | Delete -> "delete" | Scan -> "scan"
let all_kinds = [ Put; Get; Delete; Scan ]

type slow_op = {
  so_kind : string;
  so_start_ns : int;
  so_wall_ns : int;
  so_dur_ns : int;
  so_threshold_ns : int;
  so_tid : int;
  so_causes : (string * int) list;
  so_spans : (string * int) list;
}

(* One shard of the cumulative totals, in one array: cause ns at
   [kind * n_causes + cause], then op wall ns per kind at
   [op_total_at + kind], then op counts per kind at [op_count_at + kind]. *)
let op_total_at = n_kinds * n_causes
let op_count_at = op_total_at + n_kinds
let totals_len = op_count_at + n_kinds

type t = {
  a_enabled : bool;
  mutable a_threshold_ns : int; (* plain int: single-word reads/writes are atomic *)
  a_trace : Obs.Trace.t;
  a_totals : int array Per_domain.t;
  a_mutex : Mutex.t; (* guards the slow-op ring below *)
  a_ring : slow_op option array;
  mutable a_head : int;
  mutable a_slow_seen : int;
}

(* The domain-local op frame. fr_depth > 0 while inside a [timed]
   section, so nested sections fall through without touching the
   clock — the outermost cause wins and sums stay <= op wall time. *)
type frame = {
  mutable fr_live : bool;
  mutable fr_kind : int;
  mutable fr_depth : int;
  mutable fr_dur : int; (* set at close, for the fold into the totals *)
  fr_causes : int array;
}

let frame_key =
  Domain.DLS.new_key (fun () ->
      {
        fr_live = false;
        fr_kind = 0;
        fr_depth = 0;
        fr_dur = 0;
        fr_causes = Array.make n_causes 0;
      })

(* The totals summed over every shard. *)
let totals t =
  Per_domain.fold t.a_totals
    (fun acc sh ->
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) sh;
      acc)
    (Array.make totals_len 0)

let cause_total_ns t cause =
  let tot = totals t in
  List.fold_left (fun acc k -> acc + tot.((kind_index k * n_causes) + cause_index cause)) 0 all_kinds

let create ?(enabled = true) ?(threshold_ns = 1_000_000) ?(ring = 256) obs =
  if ring <= 0 then invalid_arg "Attr.create: ring <= 0";
  if threshold_ns <= 0 then invalid_arg "Attr.create: threshold_ns <= 0";
  let t =
    {
      a_enabled = enabled;
      a_threshold_ns = threshold_ns;
      a_trace = Obs.trace obs;
      a_totals = Per_domain.create (fun () -> Array.make totals_len 0);
      a_mutex = Mutex.create ();
      a_ring = Array.make ring None;
      a_head = 0;
      a_slow_seen = 0;
    }
  in
  let locked f =
    Mutex.lock t.a_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.a_mutex) f
  in
  List.iter
    (fun c -> Obs.probe obs ("attr.total_ns." ^ cause_name c) (fun () -> cause_total_ns t c))
    all_causes;
  Obs.probe obs "attr.slow.seen" (fun () -> locked (fun () -> t.a_slow_seen));
  Obs.probe obs "attr.slow.kept" (fun () ->
      locked (fun () ->
          Array.fold_left (fun acc s -> match s with Some _ -> acc + 1 | None -> acc) 0 t.a_ring));
  Obs.probe obs "attr.slow.threshold_ns" (fun () -> t.a_threshold_ns);
  t

let enabled t = t.a_enabled
let threshold_ns t = t.a_threshold_ns

(* ------------------------------------------------------------------ *)
(* Hot path                                                            *)

(* The section's exit, also on exception; a named function, not a
   [Fun.protect] closure, so charging a cause allocates nothing. *)
let charge fr cause t0 =
  let d = Obs.now_ns () - t0 in
  fr.fr_depth <- 0;
  let i = cause_index cause in
  fr.fr_causes.(i) <- fr.fr_causes.(i) + if d > 0 then d else 0

let timed cause f =
  let fr = Domain.DLS.get frame_key in
  if fr.fr_live && fr.fr_depth = 0 then begin
    fr.fr_depth <- 1;
    let t0 = Obs.now_ns () in
    match f () with
    | v ->
      charge fr cause t0;
      v
    | exception e ->
      charge fr cause t0;
      raise e
  end
  else f ()

(* Overlap (ns) of closed trace spans with the op's [t0, t1] interval;
   only computed for slow ops, so the ring scan amortizes to nothing. *)
let overlapping_spans t ~t0 ~t1 =
  List.fold_left
    (fun acc (e : Obs.Trace.event) ->
      let s = e.Obs.Trace.ev_start_ns and d = e.Obs.Trace.ev_dur_ns in
      let overlap = min (s + d) t1 - max s t0 in
      if overlap <= 0 then acc
      else
        match List.assoc_opt e.Obs.Trace.ev_name acc with
        | Some prev ->
          (e.Obs.Trace.ev_name, prev + overlap) :: List.remove_assoc e.Obs.Trace.ev_name acc
        | None -> (e.Obs.Trace.ev_name, overlap) :: acc)
    []
    (Obs.Trace.recent t.a_trace)
  |> List.sort compare

let add_frame sh fr =
  let kind = fr.fr_kind in
  let base = kind * n_causes in
  for i = 0 to n_causes - 1 do
    let v = fr.fr_causes.(i) in
    if v > 0 then sh.(base + i) <- sh.(base + i) + v
  done;
  sh.(op_total_at + kind) <- sh.(op_total_at + kind) + fr.fr_dur;
  sh.(op_count_at + kind) <- sh.(op_count_at + kind) + 1

let close_op t fr ~t0 ~t1 ~tid =
  let dur = if t1 > t0 then t1 - t0 else 0 in
  let kind = fr.fr_kind in
  let threshold = t.a_threshold_ns in
  fr.fr_dur <- dur;
  Per_domain.update t.a_totals add_frame fr;
  if dur >= threshold then begin
    (* Trace.recent takes the trace mutex; do it before a_mutex so lock
       order stays trace-free inside attribution. *)
    let spans = overlapping_spans t ~t0 ~t1 in
    Mutex.lock t.a_mutex;
    let causes = ref [] in
    for i = n_causes - 1 downto 0 do
      if fr.fr_causes.(i) > 0 then
        causes := (cause_name cause_of_index.(i), fr.fr_causes.(i)) :: !causes
    done;
    t.a_ring.(t.a_head) <-
      Some
        {
          so_kind = kind_name (List.nth all_kinds kind);
          so_start_ns = t0;
          so_wall_ns = Obs.to_wall_ns t0;
          so_dur_ns = dur;
          so_threshold_ns = threshold;
          so_tid = tid;
          so_causes = !causes;
          so_spans = spans;
        };
    t.a_head <- (t.a_head + 1) mod Array.length t.a_ring;
    t.a_slow_seen <- t.a_slow_seen + 1;
    Mutex.unlock t.a_mutex
  end

let end_op t fr timer ~t0 ~tid =
  let t1 = Obs.now_ns () in
  fr.fr_live <- false;
  Obs.Timer.record_ns timer (t1 - t0);
  close_op t fr ~t0 ~t1 ~tid

let with_op t kind timer f =
  if not t.a_enabled then Obs.Timer.time timer f
  else begin
    let fr = Domain.DLS.get frame_key in
    if fr.fr_live then Obs.Timer.time timer f
    else begin
      fr.fr_live <- true;
      fr.fr_kind <- kind_index kind;
      fr.fr_depth <- 0;
      Array.fill fr.fr_causes 0 n_causes 0;
      let tid = Thread.id (Thread.self ()) in
      let t0 = Obs.now_ns () in
      match f () with
      | v ->
        end_op t fr timer ~t0 ~tid;
        v
      | exception e ->
        end_op t fr timer ~t0 ~tid;
        raise e
    end
  end

(* ------------------------------------------------------------------ *)
(* Thresholds, introspection                                           *)

let clear_ring_locked t =
  Array.fill t.a_ring 0 (Array.length t.a_ring) None;
  t.a_head <- 0;
  t.a_slow_seen <- 0

let set_threshold_ns t ns =
  if ns <= 0 then invalid_arg "Attr.set_threshold_ns: ns <= 0";
  Mutex.lock t.a_mutex;
  t.a_threshold_ns <- ns;
  clear_ring_locked t;
  Mutex.unlock t.a_mutex

let op_count t kind = (totals t).(op_count_at + kind_index kind)
let op_total_ns t kind = (totals t).(op_total_at + kind_index kind)

let slow_ops t =
  Mutex.lock t.a_mutex;
  let n = Array.length t.a_ring in
  let acc = ref [] in
  for i = 0 to n - 1 do
    match t.a_ring.((t.a_head + i) mod n) with
    | Some s -> acc := s :: !acc
    | None -> ()
  done;
  Mutex.unlock t.a_mutex;
  List.rev !acc

let slow_seen t =
  Mutex.lock t.a_mutex;
  let v = t.a_slow_seen in
  Mutex.unlock t.a_mutex;
  v

let reset t =
  Per_domain.iter t.a_totals (fun sh -> Array.fill sh 0 totals_len 0);
  Mutex.lock t.a_mutex;
  clear_ring_locked t;
  Mutex.unlock t.a_mutex

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let slow_record_fields ?(tags = []) s =
  List.map (fun (k, v) -> (k, Obs.jstr v)) tags
  @ [
      ("kind", Obs.jstr s.so_kind);
      ("wall_ns", Obs.jint s.so_wall_ns);
      ("dur_ns", Obs.jint s.so_dur_ns);
      ("threshold_ns", Obs.jint s.so_threshold_ns);
      ("tid", Obs.jint s.so_tid);
      ( "causes",
        fun buf -> Obs.add_json_obj buf (List.map (fun (k, v) -> (k, Obs.jint v)) s.so_causes) );
      ( "attributed_ns",
        Obs.jint (List.fold_left (fun acc (_, v) -> acc + v) 0 s.so_causes) );
      ( "overlapping_spans",
        fun buf -> Obs.add_json_obj buf (List.map (fun (k, v) -> (k, Obs.jint v)) s.so_spans) );
    ]

let slow_ops_jsonl ?tags t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Obs.add_json_obj buf (slow_record_fields ?tags s);
      Buffer.add_char buf '\n')
    (slow_ops t);
  Buffer.contents buf

let chrome_events t =
  List.concat_map
    (fun s ->
      let attributed = List.fold_left (fun acc (_, v) -> acc + v) 0 s.so_causes in
      let parent =
        {
          Obs.Trace.ev_name = "slow:" ^ s.so_kind;
          ev_start_ns = s.so_start_ns;
          ev_dur_ns = s.so_dur_ns;
          ev_tid = s.so_tid;
          ev_attrs =
            [
              ("threshold_ns", s.so_threshold_ns);
              ("unattributed_ns", max 0 (s.so_dur_ns - attributed));
            ];
        }
      in
      let _, children =
        List.fold_left
          (fun (cursor, acc) (name, ns) ->
            let ev =
              {
                Obs.Trace.ev_name = "cause:" ^ name;
                ev_start_ns = cursor;
                ev_dur_ns = ns;
                ev_tid = s.so_tid;
                ev_attrs = [];
              }
            in
            (cursor + ns, ev :: acc))
          (s.so_start_ns, []) s.so_causes
      in
      parent :: List.rev children)
    (slow_ops t)

let to_json t =
  let slow = slow_ops t in
  let tot = totals t in
  Mutex.lock t.a_mutex;
  let threshold = t.a_threshold_ns in
  let slow_seen_n = t.a_slow_seen in
  Mutex.unlock t.a_mutex;
  let buf = Buffer.create 1024 in
  let causes_obj arr base =
    fun buf ->
      Obs.add_json_obj buf
        (List.map (fun c -> (cause_name c, Obs.jint arr.(base + cause_index c))) all_causes)
  in
  let slow_total = List.fold_left (fun acc s -> acc + s.so_dur_ns) 0 slow in
  let slow_causes =
    List.fold_left
      (fun acc s ->
        List.iter
          (fun (name, v) ->
            match List.assoc_opt name !acc with
            | Some prev -> acc := (name, prev + v) :: List.remove_assoc name !acc
            | None -> acc := (name, v) :: !acc)
          s.so_causes;
        acc)
      (ref []) slow
  in
  let slow_causes = List.sort (fun (_, a) (_, b) -> compare b a) !slow_causes in
  let slow_attributed = List.fold_left (fun acc (_, v) -> acc + v) 0 slow_causes in
  let top_cause = match slow_causes with (n, _) :: _ -> n | [] -> "" in
  Obs.add_json_obj buf
    [
      ("enabled", fun b -> Buffer.add_string b (string_of_bool t.a_enabled));
      ("threshold_ns", Obs.jint threshold);
      ( "ops",
        fun buf ->
          Obs.add_json_obj buf
            (List.map
               (fun k ->
                 let ki = kind_index k in
                 ( kind_name k,
                   fun buf ->
                     Obs.add_json_obj buf
                       [
                         ("count", Obs.jint tot.(op_count_at + ki));
                         ("total_ns", Obs.jint tot.(op_total_at + ki));
                         ("causes", causes_obj tot (ki * n_causes));
                       ] ))
               all_kinds) );
      ( "slow",
        fun buf ->
          Obs.add_json_obj buf
            [
              ("seen", Obs.jint slow_seen_n);
              ("kept", Obs.jint (List.length slow));
              ("threshold_ns", Obs.jint threshold);
              ("total_ns", Obs.jint slow_total);
              ("attributed_ns", Obs.jint slow_attributed);
              ( "attributed_share",
                fun b ->
                  Buffer.add_string b
                    (Printf.sprintf "%.4f"
                       (if slow_total = 0 then 0.0
                        else float_of_int slow_attributed /. float_of_int slow_total)) );
              ("top_cause", Obs.jstr top_cause);
              ( "causes",
                fun buf ->
                  Obs.add_json_obj buf (List.map (fun (k, v) -> (k, Obs.jint v)) slow_causes) );
            ] );
    ];
  Buffer.contents buf
