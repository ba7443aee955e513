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

   One static rule picks the path ({!inline}): chunks run inline on
   the coordinator exactly when [jobs = 1] or the machine has fewer
   than two cores (there the workers would time-slice the one core and
   every chunk would pay the wake-up handshake for no speedup; jobs=4
   once read 0.39x of jobs=1 that way).  Otherwise every chunk is
   dispatched.  Only scheduling differs between the two paths. *)

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

type job = { hi : int; body : int -> unit }

type t = {
  jobs : int;
  inline : bool; (* [inline ~jobs]: never dispatch, never spawn *)
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

let single_core = Domain.recommended_domain_count () < 2
let inline ~jobs = jobs <= 1 || single_core

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

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      inline = inline ~jobs;
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
      m "pool up: %d workers%s" jobs
        (if t.inline then " (inline)" else " (domains spawn on first run)"));
  t

(* Workers are spawned lazily, at the first epoch that dispatches.  An
   inline pool therefore never leaves single-domain execution, so the
   runtime never pays multi-domain minor-GC synchronization for workers
   that would only ever sit in [Condition.wait].  Coordinator-only,
   like [run]. *)
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

(* The inline path is the coordinator's plain ascending loop: a
   raising body propagates directly, and the first failure is the
   smallest failing index, exactly the dispatched contract — so
   results are identical on both paths. *)
let run t ~lo ~hi body =
  if hi < lo then ()
  else if t.jobs = 1 then
    for i = lo to hi do
      body i
    done
  else begin
    let t0 = Mclock.now () in
    if t.inline then
      for i = lo to hi do
        body i
      done
    else run_dispatched t ~lo { hi; body };
    if Metrics.enabled () then begin
      Metrics.incr m_chunks;
      Metrics.observe m_chunk_seconds (Mclock.now () -. t0);
      Metrics.observe m_chunk_span (float_of_int (hi - lo + 1))
    end
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.quit <- true;
  Condition.broadcast t.start;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
