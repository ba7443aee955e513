(* Fixed-size fork-join pool over stdlib [Domain.spawn].

   The coordinator participates in every job, so [jobs = n] means n
   workers total and n - 1 spawned domains.  Indices are claimed
   dynamically with [Atomic.fetch_and_add] — which worker computes which
   index is load-balancing only and never affects results, because the
   DP engines hand the pool bodies whose cells are pairwise independent
   (each writes only its own cell).  A body that raises poisons the job
   (remaining indices are abandoned) and the exception is re-raised on
   the coordinator; when several indices fail, the smallest index wins,
   so the surfaced exception is deterministic whenever the failures
   are.

   Dispatch cutover: waking the workers costs a broadcast plus two
   mutex handshakes per chunk — tens of microseconds — which dominates
   when the chunk's own work is small (on one core the workers are
   time-sliced, so every chunk would pay the handshake for zero
   parallel speedup; jobs=4 once read 0.39x of jobs=1 that way).  [run] therefore measures
   each chunk and, in [Auto] mode, runs a chunk inline on the
   coordinator when the estimated work is below the cutover (or,
   unconditionally, when the machine has fewer than two cores).  The
   inline path is the plain ascending loop, so results — and the
   surfaced exception (the smallest failing index, reached first) —
   are identical either way; only scheduling changes. *)

let log_src = Logs.Src.create "rs.pool" ~doc:"Level-parallel worker pool"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Chunk accounting happens on the coordinator only, once per [run]
   call (= one chunk barrier) — workers never touch the registry, and
   the [jobs = 1] path stays completely uninstrumented so a default
   build pays nothing (DESIGN.md §10, §12). *)
let m_chunks = Metrics.counter "pool.chunks"
let m_chunk_seconds = Metrics.histogram "pool.chunk.seconds"

(* Log₂ buckets: chunk spans are small integers (the DP engines
   dispatch fixed 64-cell chunks; ragged tails are shorter). *)
let span_bounds = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
let m_chunk_span = Metrics.histogram ~bounds:span_bounds "pool.chunk_span"

type dispatch = Auto | Parallel | Sequential

(* Estimated per-chunk work below which [Auto] runs the chunk inline,
   and the hysteresis factor for switching back: re-dispatch only once
   the estimate clears [4×] the cutover, so a noisy estimate cannot
   flap between modes at every barrier. *)
let cutover_seconds = 200e-6
let hysteresis = 4.

type job = { hi : int; body : int -> unit }

type t = {
  jobs : int;
  dispatch : dispatch;
  mutable inline_mode : bool; (* Auto state: run chunks inline? *)
  one_core : bool; (* < 2 cores: inline permanently under Auto *)
  mutable ewma : float; (* measured seconds per index (0. = no sample) *)
  mutex : Mutex.t;
  start : Condition.t;  (* coordinator -> workers: a new epoch is up *)
  finished : Condition.t;  (* workers -> coordinator: epoch drained *)
  mutable epoch : int;
  mutable current : job option;
  mutable active : int;  (* spawned workers still inside the epoch *)
  next : int Atomic.t;  (* next unclaimed index of the epoch *)
  poisoned : bool Atomic.t;
  mutable failures : (int * exn * Printexc.raw_backtrace) list;
  mutable quit : bool;
  mutable spawned : bool; (* workers exist (first dispatched epoch) *)
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs
let single_core () = Domain.recommended_domain_count () < 2

(* Claim-and-run loop shared by the coordinator and the workers. *)
let drain t { hi; body } =
  let continue = ref true in
  while !continue do
    if Atomic.get t.poisoned then continue := false
    else begin
      let i = Atomic.fetch_and_add t.next 1 in
      if i > hi then continue := false
      else
        try body i
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set t.poisoned true;
          Mutex.lock t.mutex;
          t.failures <- (i, e, bt) :: t.failures;
          Mutex.unlock t.mutex
    end
  done

let worker t =
  let last_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.quit) && t.epoch = !last_epoch do
      Condition.wait t.start t.mutex
    done;
    if t.quit then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      last_epoch := t.epoch;
      let job = Option.get t.current in
      Mutex.unlock t.mutex;
      drain t job;
      Mutex.lock t.mutex;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end
  done

let create ?(dispatch = Auto) ~jobs () =
  let jobs = max 1 jobs in
  let one_core = Domain.recommended_domain_count () < 2 in
  let t =
    {
      jobs;
      dispatch;
      inline_mode = one_core;
      one_core;
      ewma = 0.;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      current = None;
      active = 0;
      next = Atomic.make 0;
      poisoned = Atomic.make false;
      failures = [];
      quit = false;
      spawned = false;
      domains = [];
    }
  in
  Log.debug (fun m ->
      m "pool up: %d workers (domains spawn on first dispatch), dispatch %s%s"
        jobs
        (match dispatch with
        | Auto -> "auto"
        | Parallel -> "parallel"
        | Sequential -> "sequential")
        (if one_core then " (single core: inline)" else ""));
  t

(* Workers are spawned lazily, at the first epoch that actually
   dispatches.  A pool that stays inline for its whole life — every
   [Sequential] pool, and every [Auto] pool on a single-core machine —
   therefore never leaves single-domain execution, so the runtime never
   pays multi-domain minor-GC synchronization for workers that would
   only ever sit in [Condition.wait].  Coordinator-only, like [run]. *)
let ensure_workers t =
  if not t.spawned then begin
    t.spawned <- true;
    t.domains <-
      List.init (t.jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
    Log.debug (fun m -> m "spawned %d worker domains" (t.jobs - 1))
  end

(* The fork-join epoch: wake the workers, drain alongside them, wait
   for the barrier, surface the smallest-index failure. *)
let run_dispatched t ~lo job =
  ensure_workers t;
  Mutex.lock t.mutex;
  Atomic.set t.next lo;
  Atomic.set t.poisoned false;
  t.failures <- [];
  t.current <- Some job;
  t.active <- t.jobs - 1;
  t.epoch <- t.epoch + 1;
  Condition.broadcast t.start;
  Mutex.unlock t.mutex;
  drain t job;
  Mutex.lock t.mutex;
  while t.active > 0 do
    Condition.wait t.finished t.mutex
  done;
  t.current <- None;
  let failures = t.failures in
  t.failures <- [];
  Mutex.unlock t.mutex;
  match failures with
  | [] -> ()
  | first :: rest ->
      let _, e, bt =
        List.fold_left
          (fun (bi, _, _ as best) (i, _, _ as cand) ->
            if i < bi then cand else best)
          first rest
      in
      Printexc.raise_with_backtrace e bt

(* Auto-mode decision for a chunk of [span] indices, with hysteresis.
   No sample yet (ewma = 0) keeps the current mode: parallel pools
   start optimistic — matching the pre-cutover behavior — and adapt
   once the first barrier is measured. *)
let want_inline t ~span =
  match t.dispatch with
  | Sequential -> true
  | Parallel -> false
  | Auto ->
      if (not t.one_core) && t.ewma > 0. then begin
        let est = t.ewma *. float_of_int span in
        if t.inline_mode then begin
          if est > hysteresis *. cutover_seconds then t.inline_mode <- false
        end
        else if est < cutover_seconds then t.inline_mode <- true
      end;
      t.inline_mode

let run t ~lo ~hi body =
  if hi < lo then ()
  else if t.jobs = 1 then
    for i = lo to hi do
      body i
    done
  else begin
    let span = hi - lo + 1 in
    let inline_now = want_inline t ~span in
    let t0 = Mclock.now () in
    if inline_now then
      (* Inline chunk: the coordinator's plain ascending loop.  A
         raising body propagates directly — the first failure is the
         smallest failing index, exactly the dispatched contract. *)
      for i = lo to hi do
        body i
      done
    else run_dispatched t ~lo { hi; body };
    let dt = Mclock.now () -. t0 in
    let per_index = dt /. float_of_int span in
    t.ewma <-
      (if t.ewma = 0. then per_index
       else (0.75 *. t.ewma) +. (0.25 *. per_index));
    if Metrics.enabled () then begin
      Metrics.incr m_chunks;
      Metrics.observe m_chunk_seconds dt;
      Metrics.observe m_chunk_span (float_of_int span)
    end
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.quit <- true;
  Condition.broadcast t.start;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?dispatch ~jobs f =
  let t = create ?dispatch ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
