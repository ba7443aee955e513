(** The serving engine: request admission, the per-request degradation
    ladder, the bounded queue, the answer cache, and crash-only hot
    reload of the store generation (DESIGN.md §14).

    This module is transport-free — {!Daemon} feeds it lines from a
    Unix socket, tests and the bench feed it lines directly.  It is
    {e coordinator-only}: one domain owns the server and calls every
    function here; the evaluation {!Rs_util.Pool} (when [jobs > 1])
    runs pure per-range bodies whose only effect is writing distinct
    cells of the result array — governor polls, fault seams,
    metrics and cache updates all stay on the coordinator, at chunk
    barriers, exactly like the DP engines.

    {2 Admission and the ladder}

    Every query request gets a {!Rs_util.Governor} (from its
    [deadline_ms] / [poll_budget] fields, or the server default;
    neither → [unlimited]).  Admission is the governor's {e first}
    poll: a request whose deadline already passed is refused — or
    answered from cache, [stale]-labeled — before any evaluation work
    starts.  {!Rs_util.Governor.budget_left} then routes the request to
    the cheapest rung its remaining budget can complete ([exact] costs
    one poll per 64-range chunk, [bound] one poll, [stale] none), so a
    poll-budget request degrades {e deterministically} — the chaos
    tests rely on this.  Wall-clock expiry mid-evaluation falls through
    to the [stale] floor.  The floor — answer-cache replay — is
    deliberately ungoverned, mirroring the builder ladder's ungoverned
    A0 rung: it is what makes serving total; a cache miss there is a
    typed [Deadline] refusal whose message comes from
    {!Rs_util.Governor.describe_expiry}.

    {2 Ingest and staleness}

    When the store carries a {!Rs_core.Stream} manifest, the server
    resumes the stream at load (replaying its WAL, so deltas acked
    before a crash are already folded back in) and routes [ingest]
    requests through {!Rs_core.Stream.ingest} — the WAL fsync inside is
    the durability ack; the [Ingested] reply is sent only after it.
    The stream's per-segment [|δ|] mass is mirrored into the live
    generation's entry metadata after every ingest/load/reload; an
    entry beyond the staleness threshold answers with [stale = true],
    its construction-time RMSE bound suppressed, and never feeds the
    answer cache.  All of it is coordinator-only, like the cache.

    {2 Fault seams}

    ["serve.decode"] (before request decode), ["serve.admit"] (before
    admission), ["serve.evaluate"] (before rung evaluation),
    ["serve.reload"] (before a generation swap), ["serve.ingest"]
    (before the WAL append; a tripped ingest applies nothing and acks
    nothing) — all coordinator-only, all surfacing as typed [Injected]
    refusals, never a crash.  ["serve.accept"] belongs to {!Daemon}. *)

type config = {
  store_dir : string;
  dataset : Rs_core.Dataset.t option;
      (** enables per-answer RMSE bounds (see {!Generation}) *)
  jobs : int;  (** evaluation parallelism; [1] = strictly sequential *)
  queue_capacity : int;  (** pending queries beyond this are shed *)
  cache_capacity : int;  (** answer-cache entries *)
  cache_policy : Cache.policy;
      (** answer-cache eviction policy: [Lru] (default) or [Fifo] (the
          PR 7 semantics, kept as the determinism twin) *)
  batch_eval : bool;
      (** [true] (default) answers the [exact]/[bound] rungs through
          the vectorized {!Rs_query.Batch} plans; [false] keeps the
          per-range [Synopsis.estimate] loop as the determinism twin.
          Response bytes are contractually identical either way. *)
  default_deadline_ms : float option;
      (** applied when a query carries no deadline of its own *)
  backoff : Rs_core.Supervisor.Backoff.policy;
      (** drives [retry_after_ms] hints on [Overloaded] refusals —
          deterministic per [attempt], so a well-behaved client
          performs capped exponential backoff without coordination *)
  stale_threshold : float option;
      (** demotion threshold: an entry whose mirrored ingest mass
          exceeds this answers [stale]-flagged.  [None] (default) uses
          the stream manifest's own threshold *)
}

val default_config : store_dir:string -> config
(** [jobs = 1], [queue_capacity = 64], [cache_capacity = 256] under
    [Lru], [batch_eval = true], no default deadline,
    {!Rs_core.Supervisor.Backoff.default}, no threshold override. *)

type t

val create : config -> (t, Rs_util.Error.t) result
(** Load generation 1 (self-healing: see {!Generation.load}) and start
    the evaluation pool.  [Error] only when the OS refuses the store
    directory. *)

val close : t -> unit
(** Shut the evaluation pool down.  The server must not be used after. *)

val generation : t -> Generation.t
(** The live generation (answers cite its [gen_id]). *)

val draining : t -> bool
(** Whether a shutdown has been acknowledged (queries are now refused
    [shutting-down]; already-queued queries still drain). *)

val pending : t -> int
(** Queued queries not yet evaluated. *)

val stream : t -> Rs_core.Stream.t option
(** The live ingest target ([None] for a plain batch-built store, or
    after a stream manifest was quarantined at load). *)

(** {2 The request path} *)

type cookie = int
(** Opaque client correlation token, threaded through the queue so the
    daemon can route each response line to the connection that asked. *)

val push : t -> cookie:cookie -> string -> [ `Queued | `Reply of string ]
(** Admit one request line.  Control operations ([ping], [metrics],
    [reload], [shutdown]) and every refusal decided at the door —
    malformed lines, shed load ([`Overloaded] with its retry hint once
    the queue holds [queue_capacity] queries), queries during drain —
    are answered immediately ([`Reply]); well-formed queries enter the
    bounded queue ([`Queued]) and are answered by {!step}. *)

val step : t -> (cookie * string) option
(** Evaluate the oldest queued query and return its response line;
    [None] when the queue is empty.  Runs the admission/ladder pipeline
    described above. *)

val handle_line : t -> string -> string
(** Serial convenience for tests and the bench: [push] (cookie 0) then,
    if queued, [step].  Only valid when the caller drains after every
    push (i.e. never interleaves with a non-empty queue). *)

val log_src : Logs.src
(** The [rs.serve] log source. *)

val reload : t -> string
(** Hot-reload the store generation and return the response line:
    open-new → fsck → decode → atomic swap (a single coordinator
    assignment — readers never observe a half-built generation).  Only
    changed entries are decoded: an entry whose file is byte-equal to
    the serving generation's is reused ({!Generation.load}
    [~previous]), and the [reloaded] line on {!log_src} counts both.  Any
    failure — OS refusal, injected ["serve.reload"] fault — leaves the
    old generation serving and returns a typed [Corrupt_store] /
    [Injected] refusal.  Corrupt {e entries} are not failures: fsck
    quarantines them and the reload succeeds without them. *)
