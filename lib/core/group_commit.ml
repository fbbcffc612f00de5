(* Group commit for sync-durable puts.

   In Sync mode every put must be on disk before it is acked, and on a
   real device the fsync is ~all of the op. One fsync can durably
   cover every log append that happened before it, so concurrent sync
   puts share fsyncs instead of issuing one each: each put joins the
   currently *forming* batch after its append; the first member with no
   active leader becomes the batch's leader, waits for the batch to
   fill (fill-aware: only while some [track]ed in-flight mutation is
   still missing from it, and never longer than one fsync takes — see
   [lead]), and seals the batch (rotating [forming] so later arrivals
   start the next one).

   A sealed batch holds one pending fsync per distinct funk log its
   members appended to. The fsyncs are claimed cooperatively: the
   committer and every woken member each grab an unclaimed funk (their
   own first), fsync it with the mutex dropped, and mark it complete —
   so a batch spanning n logs (the sharded front end) issues its n
   fsyncs CONCURRENTLY, and the journal layer merges them into about
   one transaction commit where the same n fsyncs issued serially would
   each pay a full one. Helping is an acceleration, never a dependency:
   the committing thread drains every unclaimed funk itself, so the
   batch completes even if all members sleep through the broadcast.

   A member is acked when ITS funk's fsync completes, not when the
   whole batch does — members of an early-finishing funk resume (and
   start their next op, overlapping the remaining fsyncs) while slower
   funks are still committing. Batches also form for free during a
   batch's fsyncs: later arrivals join the next forming batch and
   whoever is promoted commits them together.

   Durability argument (acked <=> durable at every batch boundary):
   a put only joins a batch AFTER its append returned, and a batch is
   sealed under the mutex BEFORE any of its fsyncs start, so every
   member's bytes are in the OS buffer when its funk's fsync covers
   them. A member is only acked after its funk's [p_done] with
   [p_err = None], i.e. after that covering fsync succeeded. Conversely
   a crash before the fsync loses at most un-acked puts: nobody acks on
   a pending fsync that has not completed. On fsync failure the error
   fans out to exactly the failed funk's members — members on the
   batch's other funks are acked by their own fsyncs, which is precise:
   their bytes are durable.

   Liveness: members wait holding their chunk's shared rebalance lock
   and a pending-op slot, but a committer needs neither — it only takes
   this mutex and the funk logs' writer mutexes (leaf locks). A full
   forming batch always has a member that either leads it or waits on a
   live leader, every pending fsync is drained by its claimer or the
   committer, and every completion broadcasts, so a waiting member
   always eventually resumes. [max_batch = 1] degenerates to today's
   behaviour exactly: every put is its own batch and fsyncs alone (one
   fsync per put, serialized per funk).

   Park or fsync: a batch saves fsyncs by parking its members, and a
   parked member pays a wake-up — the time from the fsync it waited
   behind returning to it running again. When an fsync costs less than that
   (a memory device: ~0.4µs against 1.3-5.9µs), sharing it only adds
   latency, so [sync] fsyncs the writer's own log directly instead of
   joining: it compares the running fsync cost with a running mean of
   measured wake-ups. Until a wake-up has been measured, and on every
   device whose fsync costs more than a wake-up, the batch protocol
   above runs unchanged. A direct fsync covers the writer's own append,
   which returned before it started, and the put is acked only after
   it succeeds, so acked <=> durable holds the same way; it counts as
   a one-member batch. *)

open Evendb_obs

type pending = {
  p_funk : Funk.t;
  mutable p_done : bool;
  mutable p_err : exn option; (* fans out to this funk's members *)
}

type batch = {
  mutable b_pend : pending list; (* one per distinct funk, newest first *)
  mutable b_count : int; (* member puts *)
  mutable b_todo : pending list; (* sealed: fsyncs not yet claimed *)
  mutable b_left : int; (* sealed: fsyncs not yet completed *)
  mutable b_done : bool; (* every fsync completed *)
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t; (* a pending fsync completed, or [forming] rotated *)
  mutable forming : batch;
  mutable leader_active : bool;
  mutable wait_target : int;
      (* >0 while a leader waits for [forming] to reach this size; the
         joiner that fills it commits the batch itself (see [sync]) *)
  in_flight : int Atomic.t; (* sync mutations currently inside [track] *)
  mutable prev_size : int; (* last committed batch's member count *)
  max_batch : int;
  fsync_est_ns : int Atomic.t;
      (* running mean of [tm_fsync]'s samples: what one more fsync
         costs, hence the formation wait's budget; 0 until the first *)
  wake_est_ns : int Atomic.t;
      (* running mean of parked members' wake-ups (see [note_wake]);
         0 until the first *)
  mutable sleep_min_ns : int;
      (* shortest poll sleep the leader has measured; 0 until the first *)
  last_finish_ns : int Atomic.t;
      (* when the previous batch completed; a direct fsync, a batch of
         its own, sets it without the mutex *)
  mutable last_fsync_ns : int; (* when the latest batch fsync returned *)
  ctr_batches : Obs.Counter.t;
  ctr_fsyncs : Obs.Counter.t;
  ctr_fsyncs_saved : Obs.Counter.t; (* members beyond the first per funk *)
  ctr_direct : Obs.Counter.t; (* fsyncs run without joining a batch *)
  tm_batch_size : Obs.Timer.t; (* histogram of members per batch *)
  tm_fsync : Obs.Timer.t; (* duration of each log fsync *)
  tm_reform : Obs.Timer.t;
      (* previous batch completed -> this batch sealed: the commit
         pipeline's dead time (writers waking, applying, re-joining) *)
}

let fresh_batch () =
  { b_pend = []; b_count = 0; b_todo = []; b_left = 0; b_done = false }

let create ~max_batch obs =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    forming = fresh_batch ();
    leader_active = false;
    wait_target = 0;
    in_flight = Atomic.make 0;
    prev_size = 1;
    max_batch;
    fsync_est_ns = Atomic.make 0;
    wake_est_ns = Atomic.make 0;
    sleep_min_ns = 0;
    last_finish_ns = Atomic.make 0;
    last_fsync_ns = 0;
    ctr_batches = Obs.counter obs "commit.batches";
    ctr_fsyncs = Obs.counter obs "commit.fsyncs";
    ctr_fsyncs_saved = Obs.counter obs "commit.fsyncs_saved";
    ctr_direct = Obs.counter obs "commit.direct_fsyncs";
    tm_batch_size = Obs.timer obs "commit.batch_size";
    tm_fsync = Obs.timer obs "commit.fsync";
    tm_reform = Obs.timer obs "commit.reform";
  }

(* Exponentially weighted, 1/8 per sample: tracks a device that speeds
   up or slows down within a few batches, while one outlier fsync moves
   the budget by only an eighth of its excess. Both estimates are read
   without the mutex (the direct path takes none); two samples landing
   at once may lose one, which an estimate can afford. *)
let note_fsync t took =
  let f = Atomic.get t.fsync_est_ns in
  Atomic.set t.fsync_est_ns (if f = 0 then took else f + ((took - f) / 8))

(* On a host with more runnable threads than CPUs one waiter can be
   descheduled for milliseconds, and no single such wake-up may flip
   [sync] to direct fsyncs on its own. So the mean starts from zero
   rather than from the first sample, and a sample counts for at most
   twice the larger of the two estimates: while wake-ups are cheaper
   than fsyncs (a disk) it takes about five wakes above twice the fsync
   to flip the rule, and once they cost more (memory) the mean still
   climbs, by at most an eighth per sample, to what they really cost,
   so the rule does not sit on the edge of an fsync that varies. *)
let note_wake t ns =
  let w = Atomic.get t.wake_est_ns in
  let s = min ns (2 * max w (Atomic.get t.fsync_est_ns)) in
  Atomic.set t.wake_est_ns (w + ((s - w) / 8))

(* A batch sealed at [now]: the gap since the previous one completed. *)
let note_reform t now =
  let last = Atomic.get t.last_finish_ns in
  if last > 0 then Obs.Timer.record_ns t.tm_reform (max 0 (now - last))

(* Park until the next broadcast. A member parks behind an fsync — its
   own batch's, or the committing batch's that it must outwait to lead
   the next — so when one completed meanwhile, the time from its return
   to this thread running again is a wake-up sample. *)
let park t =
  let t0 = Obs.now_ns () in
  Attr.timed Attr.Commit_wait (fun () -> Condition.wait t.cond t.mutex);
  if t.last_fsync_ns > t0 then note_wake t (Obs.now_ns () - t.last_fsync_ns)

(* Complete the sealed batch [b]: called with [t.mutex] held by the
   thread whose fsync was the last outstanding one. *)
let finish t b =
  b.b_done <- true;
  Atomic.set t.last_finish_ns (Obs.now_ns ());
  t.leader_active <- false;
  t.prev_size <- max 1 b.b_count;
  Obs.Counter.incr t.ctr_batches;
  let n_fsyncs = List.length b.b_pend in
  Obs.Counter.add t.ctr_fsyncs n_fsyncs;
  Obs.Counter.add t.ctr_fsyncs_saved (b.b_count - n_fsyncs);
  Obs.Timer.record_ns t.tm_batch_size b.b_count;
  Condition.broadcast t.cond

(* Fsync the claimed pending [p] of the sealed batch [b]. Called with
   [t.mutex] held ([p] already removed from [b.b_todo]); returns with
   it held and [p] completed. *)
let fsync_one t b p =
  Mutex.unlock t.mutex;
  (* The funk is alive: some member of [b] still holds its chunk's
     shared rebalance lock — which a funk flip needs exclusively —
     until this completion wakes it. *)
  let t0 = Obs.now_ns () in
  let err = (try Funk.fsync_log p.p_funk; None with e -> Some e) in
  let t1 = Obs.now_ns () in
  Obs.Timer.record_ns t.tm_fsync (t1 - t0);
  note_fsync t (t1 - t0);
  Mutex.lock t.mutex;
  t.last_fsync_ns <- t1;
  p.p_err <- err;
  p.p_done <- true;
  b.b_left <- b.b_left - 1;
  if b.b_left = 0 then finish t b else Condition.broadcast t.cond

(* Claim own pending fsync if nobody else has: a member fsyncs the funk
   it is itself waiting on first, so it acks the moment that completes. *)
let claim_own b p =
  if List.memq p b.b_todo then begin
    b.b_todo <- List.filter (fun q -> q != p) b.b_todo;
    true
  end
  else false

(* Claim and fsync unclaimed funks until none are left. *)
let rec help t b =
  match b.b_todo with
  | [] -> ()
  | p :: rest ->
    b.b_todo <- rest;
    fsync_one t b p;
    help t b

(* Seal and commit the forming batch [b], of which the caller is a
   member on pending [p]. Called with [t.mutex] held by the thread
   owning the committer role ([t.leader_active] set); returns with the
   mutex held and [p] completed ([t.leader_active] is cleared by
   whichever thread's fsync finishes the batch). *)
let commit t b p =
  (* Seal: rotate [forming] so later arrivals join the next batch, and
     wake parked members — both puts waiting out a full forming batch
     and this batch's members, who wake to claim their funks' fsyncs.
     Every member's append happened-before this point, so the batch's
     fsyncs cover them all. *)
  assert (t.forming == b);
  t.forming <- fresh_batch ();
  t.wait_target <- 0;
  b.b_todo <- b.b_pend;
  b.b_left <- List.length b.b_pend;
  note_reform t (Obs.now_ns ());
  Condition.broadcast t.cond;
  if claim_own b p then fsync_one t b p;
  help t b;
  while not p.p_done do
    park t
  done

(* Lead the forming batch [b] as a member on [p]: wait for it to fill,
   then commit it — unless a joiner filled and committed it first.
   Called with [t.mutex] held and [t.leader_active] already set;
   returns with the mutex held and [p] completed. *)
let lead t b p =
  (* Formation wait: the leader waits for the batch to reach a target
     size before anyone pays the fsync. The target is a SNAPSHOT taken
     once, here at promotion — the larger of the writers currently in
     flight ([track]) and the previous batch's size. At promotion the
     previous batch's members are still parked inside [sync] (hence
     tracked), so the snapshot counts the whole writer population; it
     must not be recomputed during the wait, because members exit
     [track] (quick) faster than they rejoin (ack, next op, append),
     and a shrinking target collapses the batch to whichever half of
     the writers appended during the last fsync — a stable oscillation
     between two half-size cohorts. A solo writer snapshots a target of
     one and never waits.

     The commit itself is event-driven: the leader publishes the target
     in [t.wait_target] and the joiner that fills the batch commits it
     on the spot ([sync]), so the fsyncs start the instant the last
     member arrives. The leader's own wait only matters for batches
     that do not fill, and it is bounded by what it could save: a
     missing writer that does not join costs one more fsync later, so
     waiting [w] for it pays only while [w] is below one fsync's cost
     [f] ([t.fsync_est_ns]). Waiting at most [f] is within 2x of the
     best choice either way — the writer arrives in time (the wait was
     worth it) or it does not (at most [f] lost on top of the [f] that
     no wait could have saved). Before the first fsync there is no
     estimate and the leader commits at once.

     The stdlib has no timed condition wait, so the leader polls with a
     real [nanosleep] between checks: the sleep must release the OS
     CPU, not just this domain — [Thread.yield] only rotates systhreads
     within one domain and returns immediately across domains, and any
     flavour of spin starves the joiners this wait exists for when
     hardware threads are scarce. The kernel rounds the 1µs request up
     to its timer slack (~50µs), so the leader times its sleeps and
     never starts one that its shortest measured sleep says would
     overrun the budget: on a device whose fsync is cheaper than a
     sleep it does not wait at all. The shortest, not a mean, because
     a descheduled sleep lengthens one sample without saying anything
     about the next — a mean could climb above the budget and, the
     leader then never sleeping, never come down. *)
  let target = min t.max_batch (max t.prev_size (Atomic.get t.in_flight)) in
  let fsync_est = Atomic.get t.fsync_est_ns in
  if b.b_count < target && fsync_est > 0 then begin
    t.wait_target <- target;
    Attr.timed Attr.Commit_wait (fun () ->
        let deadline = Obs.now_ns () + fsync_est in
        while t.forming == b && b.b_count < target && Obs.now_ns () + t.sleep_min_ns < deadline do
          Mutex.unlock t.mutex;
          let t0 = Obs.now_ns () in
          Unix.sleepf 1e-6;
          let slept = Obs.now_ns () - t0 in
          Mutex.lock t.mutex;
          if t.sleep_min_ns = 0 || slept < t.sleep_min_ns then t.sleep_min_ns <- slept
        done)
  end;
  if t.forming == b then commit t b p
  else
    (* A joiner filled the batch and owns its commit now; this thread
       is a plain member again. No promotion here: [b] is sealed and
       its committer is live, so claim a share of its fsyncs and await
       own completion. *)
    while not p.p_done do
      if claim_own b p then fsync_one t b p
      else if b.b_todo <> [] then help t b
      else park t
    done

(* Join the forming batch (waiting out a full one), with the mutex
   held. Returns the joined batch and the member's pending fsync. *)
let rec join t funk =
  let b = t.forming in
  if b.b_count >= t.max_batch then begin
    (* Full: its leader (current or promoted) will rotate [forming]
       when it seals; park until then so no batch exceeds the bound. *)
    park t;
    join t funk
  end
  else begin
    b.b_count <- b.b_count + 1;
    match List.find_opt (fun p -> p.p_funk == funk) b.b_pend with
    | Some p -> (b, p)
    | None ->
      let p = { p_funk = funk; p_done = false; p_err = None } in
      b.b_pend <- p :: b.b_pend;
      (b, p)
  end

(* Fsync [funk]'s log without joining a batch: a one-member batch that
   takes no shared lock. *)
let direct t funk =
  let t0 = Obs.now_ns () in
  note_reform t t0;
  let err = (try Funk.fsync_log funk; None with e -> Some e) in
  let t1 = Obs.now_ns () in
  Atomic.set t.last_finish_ns t1;
  Obs.Timer.record_ns t.tm_fsync (t1 - t0);
  note_fsync t (t1 - t0);
  Obs.Counter.incr t.ctr_batches;
  Obs.Counter.incr t.ctr_fsyncs;
  Obs.Counter.incr t.ctr_direct;
  Obs.Timer.record_ns t.tm_batch_size 1;
  match err with Some e -> raise e | None -> ()

(* Join the forming batch and return once a covering fsync of [funk]'s
   log completed. *)
let batched t funk =
  if not (Mutex.try_lock t.mutex) then
    Attr.timed Attr.Commit_wait (fun () -> Mutex.lock t.mutex);
  let b, p = join t funk in
  if not t.leader_active then begin
    t.leader_active <- true;
    lead t b p
  end
  else if t.wait_target > 0 && b == t.forming && b.b_count >= t.wait_target
  then
    (* This join filled a waiting leader's batch: commit it right here
       rather than waiting out the leader's next poll — the
       leader wakes to find the batch sealed and rejoins as a member.
       The committer role transfers; [leader_active] stays set until
       the batch's last fsync clears it. *)
    commit t b p
  else
    (* Follower: wait for own completion, claiming a share of the
       batch's fsyncs once it seals. The active leader may be
       committing an older batch; when that batch finishes (broadcast)
       the first member to wake finds no leader and promotes itself. *)
    while not p.p_done do
      if claim_own b p then fsync_one t b p
      else if b.b_todo <> [] then help t b
      else if not t.leader_active then begin
        t.leader_active <- true;
        lead t b p
      end
      else park t
    done;
  let err = p.p_err in
  Mutex.unlock t.mutex;
  match err with Some e -> raise e | None -> ()

let sync t funk =
  let fsync_est = Atomic.get t.fsync_est_ns in
  if fsync_est > 0 && fsync_est < Atomic.get t.wake_est_ns then direct t funk
  else batched t funk

let track t f =
  Atomic.incr t.in_flight;
  match f () with
  | v ->
    Atomic.decr t.in_flight;
    v
  | exception e ->
    Atomic.decr t.in_flight;
    raise e
