(** Fault-tolerant segmented builds: one build job per segment under a
    robustness contract.

    The supervisor turns a {!Segmented.plan} into a {!Segmented.t} by
    running one {!Builder} job per segment — coarse-grained, one
    {!Rs_util.Pool} domain per segment, the granularity the PR-3
    benchmark showed actually wins — while treating partial failure as
    a first-class citizen:

    - {b Retry with capped exponential backoff} ({!Backoff}): outcomes
      classified transient (injected I/O faults, [Io_failure]) are
      retried per segment, with deterministic seeded jitter and
      per-segment backoff state.  A healthy build never sleeps.
    - {b Graceful degradation}: when retries are exhausted (or the
      failure is permanent), the segment falls down
      {!Builder.fallback_ladder} — opt-a → opt-a-rounded → a0 — and the
      per-segment outcome is aggregated into a build-level report.  The
      per-segment A0 floor runs exactly like every other rung of the
      ladder the builder already has: ungoverned and uncheckpointed.
    - {b Crash-safe manifest}: with [manifest_dir], per-segment status
      lives in a {!Store} [BUILD] manifest (CRC-framed, atomic
      temp+fsync+rename) and completed segment synopses in the store
      itself, so a killed build resumes skipping completed segments and
      re-entering in-flight ones from their per-segment
      {!Rs_util.Checkpoint} snapshots.  A torn manifest is quarantined
      and the build restarts — corruption never bricks a build.
    - {b Budget planning}: the global word budget is split across
      segments by {!Segmented.greedy_split} (marginal range-SSE
      descent, curves priced with the O(n) SSE lowerings) or
      {!Segmented.uniform_split}; grants are pinned in the manifest so
      resume replays the same split.  Grants never exceed the global
      budget, even when segments degrade to cheaper representations.

    {b Concurrency discipline} (DESIGN.md §13): the supervisor itself
    is coordinator-only.  All manifest writes, fault-seam trips
    (["segment.build"], ["segment.commit"], ["supervisor.abort"]),
    governor polls (once per segment boundary / pool wave — never
    inside a segment), retries, and metrics/trace recording happen on
    the coordinator.  The parallel phase hands workers {e pure} builds:
    governor {!Rs_util.Governor.unlimited}, no checkpoint path, inner
    [jobs = 1], observability suspended ({!Rs_util.Metrics.with_disabled})
    for the whole region and replayed as segment-level counters by the
    coordinator at wave barriers.  Whenever any fault site is armed
    ({!Rs_util.Faults.any_armed}), or a deterministic per-segment
    governor is requested, the supervisor falls back to its sequential
    path so every seam stays on the coordinator.  Results are
    bit-identical for every job count. *)

(** Capped exponential backoff with deterministic, seeded,
    per-(segment, attempt) jitter. *)
module Backoff : sig
  type policy = {
    base : float;  (** first delay, seconds ([> 0]) *)
    cap : float;  (** hard ceiling on any single delay, seconds *)
    retries : int;  (** retry attempts per ladder rung (after the first try) *)
    jitter : float;  (** jitter fraction: delay scales by [1 + jitter·u] *)
    seed : int;  (** jitter seed — same seed, same delays *)
  }

  val default : policy
  (** [{ base = 0.02; cap = 0.25; retries = 3; jitter = 0.5; seed = 0x5eed }] *)

  val delay : policy -> seg:int -> attempt:int -> float
  (** The [attempt]-th ([≥ 1]) delay for segment [seg]:
      [min cap (base·2^(attempt−1)·(1 + jitter·u(seed, seg, attempt)))]
      with [u ∈ [0, 1)] a pure hash — deterministic, never shared
      across segments, and never above [cap]. *)
end

(** {2 The BUILD manifest} *)

type manifest = {
  m_fingerprint : string;  (** CRC over the data and the parameters *)
  m_grants : int array;
  m_status : (string * int) option array;  (** (rung, retries) when done *)
}

val parse_manifest : path:string -> string -> manifest
(** The resume path's reader of a BUILD manifest body.  Raises
    [Rs_error (Corrupt_checkpoint _)] on a bad line, a missing field or
    a segment status out of range, repeated or absent. *)

type seg_report = {
  seg : int;
  lo : int;
  hi : int;  (** the segment's global span *)
  granted_words : int;  (** the planner's grant *)
  delivered : string;  (** method that actually produced the synopsis *)
  retries : int;  (** transient-failure retries spent on this segment *)
  resumed : bool;  (** restored from a previous run via the manifest *)
  abandoned : (string * string) list;
      (** ladder rungs given up, oldest first, with the reason (typed
          errors rendered by {!Rs_util.Error.to_string}, so expiry
          reasons go through {!Rs_util.Governor.describe_expiry}) *)
}

type report = {
  requested : string;
  planner : [ `Greedy | `Uniform ];
  budget_words : int;
  storage_words : int;  (** actual usage, always [≤ budget_words] *)
  segs : seg_report array;
}

val degraded : report -> bool
(** Whether any segment delivered a method below the requested one
    (including the opt-a builder's own internal ladder). *)

val report_lines : report -> string list
(** Human-readable rendering: one summary line plus one line per
    segment that retried, degraded, or was resumed. *)

val build :
  ?options:Builder.options ->
  ?policy:Backoff.policy ->
  ?sleep:(float -> unit) ->
  ?manifest_dir:string ->
  ?resume:bool ->
  ?deadline:float ->
  ?checkpoint_every:float ->
  ?seg_poll_budget:int ->
  ?planner:[ `Greedy | `Uniform ] ->
  Dataset.t ->
  method_name:string ->
  budget_words:int ->
  segments:int ->
  (Segmented.t * report, Rs_util.Error.t) result
(** Build a segmented synopsis under the robustness contract.

    [options.jobs > 1] enables the parallel phase (one domain per
    segment, waves of [jobs]); [options.governor] is polled once per
    segment boundary (sequential) or wave barrier (parallel) — a
    deterministic poll-budget governor there kills the build at an
    exact segment boundary, the kill-and-resume sweep's tool.
    [sleep] (default [Unix.sleepf]) receives every backoff delay —
    tests pass a fake clock.  [manifest_dir] arms the crash-safe
    manifest (and per-segment opt-a snapshots); [resume] skips
    segments the manifest records as done (their synopses are loaded
    back from the store and verified) and re-enters pending ones,
    resuming from their snapshot when one exists.  [deadline] bounds
    the whole build: with a manifest, expiry returns
    [Error (Interrupted _)] (exit 5, resumable); without, a
    [Timeout].  [checkpoint_every]/[seg_poll_budget] reach the
    per-segment opt-a builds (the latter as a deterministic
    {!Rs_util.Governor} poll budget per attempt, for tests).
    [planner] defaults to [`Greedy].

    Errors: [Invalid_input] (unknown method, budget too small for the
    segment count, bad segment count), [Corrupt_checkpoint] (resume
    against a manifest from a different build — a {e torn} manifest is
    instead quarantined and rebuilt), [Interrupted] (deadline or
    governor expiry at a boundary, or a per-segment snapshot written;
    re-run with [resume]), or the last per-segment error when every
    ladder rung of some segment failed. *)
