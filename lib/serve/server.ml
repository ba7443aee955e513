module Error = Rs_util.Error
module Faults = Rs_util.Faults
module Governor = Rs_util.Governor
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace
module Pool = Rs_util.Pool
module Backoff = Rs_core.Supervisor.Backoff
module P = Protocol

let log_src = Logs.Src.create "rs.serve" ~doc:"rs_serve request pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Chunked evaluation granularity: the exact rung polls its governor
   once per [chunk] ranges — the serving twin of the DP engines'
   [parallel_chunk].  A constant, never a function of [jobs], so
   poll counts (and hence poll-budget degradations) are identical for
   every job count. *)
let chunk = 64

type config = {
  store_dir : string;
  dataset : Rs_core.Dataset.t option;
  jobs : int;
  queue_capacity : int;
  cache_capacity : int;
  cache_policy : Cache.policy;
  batch_eval : bool;
  default_deadline_ms : float option;
  backoff : Backoff.policy;
  stale_threshold : float option;
      (** overrides the stream manifest's staleness threshold for
          answer demotion; [None] uses the stream's own *)
}

let default_config ~store_dir =
  {
    store_dir;
    dataset = None;
    jobs = 1;
    queue_capacity = 64;
    cache_capacity = 256;
    cache_policy = Cache.Lru;
    batch_eval = true;
    default_deadline_ms = None;
    backoff = Backoff.default;
    stale_threshold = None;
  }

type cookie = int

type cached = { c_gen : int; c_estimates : float array }

type t = {
  config : config;
  mutable gen : Generation.t;
  mutable next_gen_id : int;
  pool : Pool.t option;  (** [Some] iff [jobs > 1] *)
  queue : (cookie * P.request) Queue.t;
  cache : cached Cache.t;
  scratch : Buffer.t;
      (** reusable response-encode buffer — coordinator-only, cleared
          per response *)
  mutable stream : Rs_core.Stream.t option;
      (** the live ingest target, resumed from the store's STREAM
          manifest; [None] for a plain (batch-built) store —
          coordinator-only, like the cache *)
  mutable draining : bool;
}

(* Interned once; recorded once per request / reload on the
   coordinator — the Governor.poll cadence, never per range. *)
let m_requests = Metrics.counter "serve.requests"
let m_shed = Metrics.counter "serve.queue.shed"
let m_reloads = Metrics.counter "serve.reloads"
let m_ingests = Metrics.counter "serve.ingests"
let m_stale_answers = Metrics.counter "serve.answers.stale_flagged"
let g_generation = Metrics.gauge "serve.generation"
let g_pending = Metrics.gauge "serve.queue.pending"

(* Per-rung evaluation latency (nanoseconds, logarithmic buckets) and
   per-request minor-allocation histograms — observed once per served
   query on the coordinator (the request cadence), never per range.
   When the registry is disabled the whole measurement is one branch. *)
let eval_ns_bounds () =
  [| 1e2; 3e2; 1e3; 3e3; 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7; 3e7; 1e8; 1e9 |]

let h_eval_exact = Metrics.histogram ~bounds:(eval_ns_bounds ()) "serve.eval_ns.exact"
let h_eval_bound = Metrics.histogram ~bounds:(eval_ns_bounds ()) "serve.eval_ns.bound"
let h_eval_stale = Metrics.histogram ~bounds:(eval_ns_bounds ()) "serve.eval_ns.stale"

let eval_hist = function
  | P.Exact -> h_eval_exact
  | P.Bound -> h_eval_bound
  | P.Stale -> h_eval_stale

let h_request_alloc =
  (* log2-words buckets: bound [i] is 2^i minor words. *)
  Metrics.histogram
    ~bounds:(Array.init 24 (fun i -> Float.ldexp 1. i))
    "serve.request_alloc"

(* {2 Stream integration — ingest and staleness}

   A store written by {!Rs_core.Stream} carries a STREAM manifest; the
   daemon resumes the stream (replaying the WAL, so deltas acked before
   a crash are already folded back in) and routes [ingest] requests
   through it.  All of this is coordinator-only state, exactly like the
   cache: pool workers never see the stream, the WAL, or the staleness
   metadata. *)

let resume_stream dir =
  match
    Error.guard (fun () ->
        Error.get (Rs_core.Stream.resume (Rs_core.Store.open_dir dir)))
  with
  | Ok stream -> stream
  | Error e ->
      (* A torn stream manifest degrades the daemon to batch-only
         serving (ingest refused); the synopsis entries themselves are
         untouched and keep serving.  Quarantine so a later writer
         starts clean. *)
      Log.warn (fun m ->
          m "stream manifest unusable (%s); serving without ingest"
            (Error.to_string e));
      (try Rs_core.Store.quarantine_stream_manifest (Rs_core.Store.open_dir dir)
       with _ -> ());
      None

let stream_threshold config stream =
  match config.stale_threshold with
  | Some th -> th
  | None -> (Rs_core.Stream.config stream).Rs_core.Stream.stale_threshold

(* Mirror the stream's per-segment staleness mass into the live
   generation's entry metadata — once per load/reload/ingest (the
   request cadence), never per range or per delta. *)
let mirror_staleness config gen stream =
  match stream with
  | None -> ()
  | Some stream ->
      let th = stream_threshold config stream in
      let prefix = (Rs_core.Stream.config stream).Rs_core.Stream.entry_prefix in
      Array.iteri
        (fun i dirty ->
          Generation.mark_staleness gen
            ~name:(Printf.sprintf "%s.seg%d" prefix i)
            ~dirty ~stale:(dirty > th))
        (Rs_core.Stream.staleness stream)

let create config =
  match
    Generation.load ?dataset:config.dataset ~gen_id:1 config.store_dir
  with
  | Error _ as e -> e
  | Ok gen ->
      Metrics.set g_generation 1.;
      Log.info (fun m ->
          m "serving %d entr%s from %s (generation 1, %d quarantined)"
            (Generation.size gen)
            (if Generation.size gen = 1 then "y" else "ies")
            config.store_dir
            (List.length gen.Generation.quarantined));
      let stream = resume_stream config.store_dir in
      mirror_staleness config gen stream;
      Ok
        {
          config;
          gen;
          next_gen_id = 2;
          pool =
            (if config.jobs > 1 then Some (Pool.create ~jobs:config.jobs ())
             else None);
          queue = Queue.create ();
          cache =
            Cache.create ~policy:config.cache_policy
              ~capacity:config.cache_capacity;
          scratch = Buffer.create 512;
          stream;
          draining = false;
        }

let close t = Option.iter Pool.shutdown t.pool
let generation t = t.gen
let stream t = t.stream
let draining t = t.draining
let pending t = Queue.length t.queue

(* {2 Answer cache — the stale floor} *)

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The key is binary: the synopsis name's length as 8 raw bytes, the
   name, then each range as two raw 64-bit endpoints.  The length
   prefix fixes where the ranges start and every range takes 16 bytes,
   so distinct requests never share a key; building it is a few memory
   stores per range rather than rendering every endpoint in decimal. *)
let cache_key ~synopsis ~ranges =
  let ls = String.length synopsis in
  let b = Bytes.create (8 + ls + (16 * Array.length ranges)) in
  set64u b 0 (Int64.of_int ls);
  Bytes.blit_string synopsis 0 b 8 ls;
  for i = 0 to Array.length ranges - 1 do
    let a, bb = ranges.(i) in
    let o = 8 + ls + (16 * i) in
    set64u b o (Int64.of_int a);
    set64u b (o + 8) (Int64.of_int bb)
  done;
  Bytes.unsafe_to_string b

let cache_put t key gen estimates =
  Cache.put t.cache key { c_gen = gen; c_estimates = estimates }

(* {2 Refusals} *)

let refuse ?id ?retry_after_ms refusal message =
  Metrics.count ("serve.refusals." ^ P.refusal_to_string refusal) 1;
  P.Refused { id; refusal; message; retry_after_ms }

let refusal_of_error ?id e =
  let refusal =
    if Error.is_injected e then P.Injected
    else
      match e with
      | Error.Timeout _ -> P.Deadline
      | Error.Corrupt_synopsis _ | Error.Corrupt_checkpoint _
      | Error.Io_failure _ ->
          P.Corrupt_store
      | _ -> P.Bad_request
  in
  (* Error.to_string renders Timeout via Governor.describe_expiry, so
     poll-budget expiries never print as seconds. *)
  refuse ?id refusal (Error.to_string e)

(* {2 The ladder} *)

let eval_exact t gov ~entry ~ranges ~out =
  (* One governor poll per chunk of 64 ranges, on the coordinator.
     Expiry returns [false]: the caller falls to the stale floor.
     [Checkpoint_due] is a plain Continue — serving never snapshots;
     a request is retried, not resumed.

     The default path answers each chunk through the vectorized
     [Batch] plan; [batch_eval = false] keeps the per-range
     [Synopsis.estimate] loop as the determinism twin (the two are
     contractually bit-identical — test_batch pins it).  Pool workers
     run the pure per-range kernel only: plans are immutable and
     worker-safe, and the poll cadence is unchanged either way. *)
  let n = Array.length ranges in
  let expired = ref false in
  let lo = ref 0 in
  while (not !expired) && !lo < n do
    match Governor.poll gov with
    | Governor.Expired _ -> expired := true
    | Governor.Continue | Governor.Checkpoint_due ->
        let hi = min n (!lo + chunk) - 1 in
        (match t.pool with
        | Some pool when not (Faults.any_armed ()) ->
            let body =
              if t.config.batch_eval then fun i ->
                let a, b = ranges.(i) in
                out.(i) <- Rs_query.Batch.eval_one entry.Generation.plan ~a ~b
              else fun i ->
                let a, b = ranges.(i) in
                out.(i) <- Rs_core.Synopsis.estimate entry.Generation.syn ~a ~b
            in
            Pool.run pool ~lo:!lo ~hi body
        | _ ->
            if t.config.batch_eval then
              Rs_query.Batch.eval entry.Generation.plan ~ranges ~lo:!lo ~hi ~out
            else
              for i = !lo to hi do
                let a, b = ranges.(i) in
                out.(i) <- Rs_core.Synopsis.estimate entry.Generation.syn ~a ~b
              done);
        lo := hi + 1
  done;
  not !expired

let eval_bound t gov ~prefix ~ranges ~out =
  (* The boundary-estimate rung: one poll for the whole batch, then
     O(1) per range off the precomputed prefix vector. *)
  match Governor.poll gov with
  | Governor.Expired _ -> false
  | Governor.Continue | Governor.Checkpoint_due ->
      if t.config.batch_eval then
        Rs_query.Batch.eval_prefix ~prefix ~ranges ~lo:0
          ~hi:(Array.length ranges - 1)
          ~out
      else
        Array.iteri
          (fun i (a, b) -> out.(i) <- prefix.(b) -. prefix.(a - 1))
          ranges;
      true

(* How many polls the exact rung needs for [n] ranges. *)
let exact_polls n = (n + chunk - 1) / chunk

let stale_floor t ?id ~key ~expiry () =
  (* The ungoverned floor (the ladder's A0 twin): replay the answer
     cache, or refuse with the expiry that got us here. *)
  match Cache.find t.cache key with
  | Some c ->
      Metrics.count "serve.answers.stale" 1;
      P.Answers
        {
          id;
          generation = c.c_gen;
          rung = P.Stale;
          estimates = c.c_estimates;
          rmse_bound = None;
          (* The Stale rung replays previously-served exact bytes
             verbatim (the replay-determinism contract); the rung label
             itself already marks the answer as possibly outdated. *)
          stale = false;
        }
  | None ->
      let elapsed, deadline, reason = expiry in
      refuse ?id P.Deadline
        ("deadline not met and no cached answer: "
        ^ Governor.describe_expiry ~reason ~elapsed ~deadline)

let answer_query t ~id ~synopsis ~ranges ~deadline_ms ~poll_budget =
  match Generation.find t.gen synopsis with
  | None ->
      refuse ?id P.Unknown_synopsis
        (Printf.sprintf "synopsis %S not in generation %d (%d entries)"
           synopsis t.gen.Generation.gen_id (Generation.size t.gen))
  | Some entry ->
      let bad =
        Array.exists (fun (a, b) -> a < 1 || b < a || b > entry.Generation.n)
          ranges
      in
      if bad then
        refuse ?id P.Bad_request
          (Printf.sprintf "range outside 1 <= a <= b <= %d" entry.Generation.n)
      else begin
        Faults.trip "serve.admit";
        let deadline_ms =
          match deadline_ms with
          | Some _ as d -> d
          | None -> t.config.default_deadline_ms
        in
        let gov =
          match (deadline_ms, poll_budget) with
          | None, None -> Governor.unlimited
          | deadline_ms, poll_budget ->
              Governor.create
                ?deadline:(Option.map (fun ms -> ms /. 1000.) deadline_ms)
                ?poll_budget ()
        in
        let key = cache_key ~synopsis ~ranges in
        let nr = Array.length ranges in
        let answer rung estimates =
          (* Only exact answers feed the stale floor: a bound answer is
             trivially recomputable and must never displace a cached
             exact answer, and a stale replay re-caching itself would be
             a no-op.  An answer from a stale entry never feeds it
             either — the cache holds only answers that were fresh when
             served, so a replay cites at worst pre-ingest data, never a
             mix. *)
          let stale = entry.Generation.stale in
          if rung = P.Exact && not stale then
            cache_put t key t.gen.Generation.gen_id estimates;
          Metrics.count ("serve.answers." ^ P.rung_to_string rung) 1;
          if stale then Metrics.incr m_stale_answers;
          P.Answers
            {
              id;
              generation = t.gen.Generation.gen_id;
              rung;
              estimates;
              (* A construction-time RMSE bound describes the data the
                 synopsis was built from; once the entry has absorbed
                 ingest mass beyond the threshold it must not be cited. *)
              rmse_bound = (if stale then None else entry.Generation.rmse_bound);
              stale;
            }
        in
        (* Admission: the governor's first poll.  A request that is
           already over budget does no evaluation work at all. *)
        match Governor.poll gov with
        | Governor.Expired { elapsed; deadline; reason; _ } ->
            stale_floor t ?id ~key ~expiry:(elapsed, deadline, reason) ()
        | Governor.Continue | Governor.Checkpoint_due -> (
            Faults.trip "serve.evaluate";
            let out = Array.make nr 0. in
            (* Deterministic routing: spend the remaining poll budget on
               the cheapest rung that fits it.  When no cheaper governed
               rung exists (no prefix vector), attempt exact regardless —
               it expires mid-evaluation and the expiry is genuine. *)
            (* A budget of [b] expires at the [b]-th poll, so only
               [left - 1] working polls remain. *)
            let fits_exact =
              match Governor.budget_left gov with
              | None -> true
              | Some left -> left - 1 >= exact_polls nr
            in
            let attempt_exact =
              fits_exact || entry.Generation.prefix = None
            in
            if attempt_exact && eval_exact t gov ~entry ~ranges ~out then
              answer P.Exact out
            else
              let fits_bound =
                match Governor.budget_left gov with
                | None -> true
                | Some left -> left - 1 >= 1
              in
              match entry.Generation.prefix with
              | Some prefix
                when fits_bound && eval_bound t gov ~prefix ~ranges ~out ->
                  answer P.Bound out
              | _ ->
                  let expiry =
                    match Governor.poll gov with
                    | Governor.Expired { elapsed; deadline; reason; _ } ->
                        (elapsed, deadline, reason)
                    | _ ->
                        (* Unreachable in practice (we only get here
                           once the governor expired or the budget ran
                           dry), but keep the floor total. *)
                        (Governor.elapsed gov, 0., Governor.Wall_clock)
                  in
                  stale_floor t ?id ~key ~expiry ())
      end

(* {2 Ingest} *)

let answer_ingest t ~id ~synopsis ~deltas =
  match t.stream with
  | None ->
      refuse ?id P.Unknown_synopsis
        (Printf.sprintf
           "synopsis %S is not stream-backed (no STREAM manifest in this \
            store)"
           synopsis)
  | Some stream ->
      let prefix = (Rs_core.Stream.config stream).Rs_core.Stream.entry_prefix in
      if synopsis <> prefix then
        refuse ?id P.Unknown_synopsis
          (Printf.sprintf "ingest targets %S but this store streams %S"
             synopsis prefix)
      else begin
        Faults.trip "serve.ingest";
        (* Stream.ingest WAL-appends and fsyncs before it returns — the
           Ingested reply below IS the durability ack: kill -9 after
           this line loses nothing. *)
        let report = Rs_core.Stream.ingest stream deltas in
        Metrics.incr m_ingests;
        mirror_staleness t.config t.gen t.stream;
        let staleness = Rs_core.Stream.staleness stream in
        let th = stream_threshold t.config stream in
        P.Ingested
          {
            id;
            synopsis;
            applied = report.Rs_core.Stream.applied;
            dirty = Array.fold_left ( +. ) 0. staleness;
            stale = Array.exists (fun d -> d > th) staleness;
          }
      end

(* {2 Control operations and the queue} *)

(* All response lines go out through the server's one scratch buffer:
   the steady-state encode path allocates only the response string
   itself — coordinator-only, like the cache and the metrics
   registry. *)
let encode t response =
  Buffer.clear t.scratch;
  P.encode_response_into t.scratch response;
  Buffer.contents t.scratch

let reload t =
  Metrics.incr m_reloads;
  let response =
    match
      Error.guard (fun () ->
          Faults.trip "serve.reload";
          let gen_id = t.next_gen_id in
          Error.get
            (Generation.load ?dataset:t.config.dataset ~previous:t.gen ~gen_id
               t.config.store_dir))
    with
    | Ok gen ->
        (* The swap is one coordinator assignment: crash-only by
           construction — there is no intermediate state to tear. *)
        t.gen <- gen;
        t.next_gen_id <- t.next_gen_id + 1;
        (* A refresh/compaction may have landed between generations:
           re-resume the stream against the new store state and carry
           its staleness into the fresh entries. *)
        t.stream <- resume_stream t.config.store_dir;
        mirror_staleness t.config t.gen t.stream;
        Metrics.set g_generation (float_of_int gen.Generation.gen_id);
        Log.info (fun m ->
            m "reloaded: generation %d, %d entries (%d reused, %d decoded), \
               %d quarantined"
              gen.Generation.gen_id (Generation.size gen)
              gen.Generation.reused gen.Generation.decoded
              (List.length gen.Generation.quarantined));
        P.Reloaded
          {
            generation = gen.Generation.gen_id;
            entries = Generation.size gen;
            quarantined = List.length gen.Generation.quarantined;
          }
    | Error e ->
        Log.warn (fun m ->
            m "reload failed (%s); keeping generation %d" (Error.to_string e)
              t.gen.Generation.gen_id);
        refusal_of_error e
  in
  encode t response

let control t req =
  match req with
  | P.Ping -> P.Pong
  | P.Metrics ->
      (* to_json ends with a newline (it is also a file format); a raw
         newline inside a response would tear the line framing. *)
      P.Metrics_report (String.trim (Metrics.to_json ()))
  | P.Shutdown ->
      t.draining <- true;
      Log.info (fun m -> m "shutdown acknowledged; draining %d" (pending t));
      P.Shutdown_ack
  | P.Reload | P.Query _ | P.Ingest _ -> assert false

let push t ~cookie line =
  Metrics.incr m_requests;
  let reply r = `Reply (encode t r) in
  match
    Error.guard (fun () ->
        Faults.trip "serve.decode";
        P.decode_request line)
  with
  | Error e -> reply (refusal_of_error e)
  | Ok (Error msg) -> reply (refuse P.Bad_request msg)
  | Ok (Ok (P.Query { id; attempt; _ })) when t.draining ->
      ignore attempt;
      reply (refuse ?id P.Shutting_down "daemon is draining")
  | Ok (Ok (P.Ingest { id; _ })) when t.draining ->
      reply (refuse ?id P.Shutting_down "daemon is draining")
  | Ok (Ok (P.Ingest { id; synopsis; deltas })) ->
      (* Ingest replies inline, like reload: the fsync inside is the
         ack point, so the reply must not sit behind queued queries. *)
      reply
        (match
           Error.guard (fun () -> answer_ingest t ~id ~synopsis ~deltas)
         with
        | Ok r -> r
        | Error e -> refusal_of_error ?id e)
  | Ok (Ok P.Reload) when t.draining ->
      reply (refuse P.Shutting_down "daemon is draining")
  | Ok (Ok P.Reload) -> `Reply (reload t)
  | Ok (Ok ((P.Ping | P.Metrics | P.Shutdown) as req)) -> reply (control t req)
  | Ok (Ok (P.Query { id; attempt; _ } as req)) ->
      if Queue.length t.queue >= t.config.queue_capacity then begin
        Metrics.incr m_shed;
        let retry_after_ms =
          1000. *. Backoff.delay t.config.backoff ~seg:0 ~attempt:(max 1 attempt)
        in
        reply
          (refuse ?id ~retry_after_ms P.Overloaded
             (Printf.sprintf "queue full (%d pending); retry after hint"
                (Queue.length t.queue)))
      end
      else begin
        Queue.push (cookie, req) t.queue;
        Metrics.set g_pending (float_of_int (Queue.length t.queue));
        `Queued
      end

let step t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some (cookie, req) ->
      Metrics.set g_pending (float_of_int (Queue.length t.queue));
      (* Request-cadence observability: one latency observation (per
         answering rung) and one minor-allocation observation per
         served query, on the coordinator.  Disabled registry = one
         branch here, zero timing/GC reads. *)
      let recording = Metrics.enabled () in
      let w0 = if recording then Gc.minor_words () else 0. in
      let t0 = if recording then Rs_util.Mclock.now () else 0. in
      let response =
        match req with
        | P.Query { id; synopsis; ranges; deadline_ms; poll_budget; attempt = _ }
          ->
            Trace.with_span "serve.request" (fun () ->
                match
                  Error.guard (fun () ->
                      answer_query t ~id ~synopsis ~ranges ~deadline_ms
                        ~poll_budget)
                with
                | Ok r -> r
                | Error e -> refusal_of_error ?id e)
        | _ -> assert false
      in
      let line = encode t response in
      if recording then begin
        (match response with
        | P.Answers { rung; _ } ->
            Metrics.observe (eval_hist rung)
              ((Rs_util.Mclock.now () -. t0) *. 1e9)
        | _ -> ());
        Metrics.observe h_request_alloc (Gc.minor_words () -. w0)
      end;
      Some (cookie, line)

let handle_line t line =
  match push t ~cookie:0 line with
  | `Reply r -> r
  | `Queued -> (
      match step t with
      | Some (_, r) -> r
      | None -> assert false (* we just queued *))
