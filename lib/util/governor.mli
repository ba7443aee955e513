(** Cooperative resource governor for long-running constructions.

    A governor is created once per build and polled at coarse work
    boundaries — the OPT-A dynamic program polls once per DP row, never
    per state, so governance adds no per-state overhead.  All timing
    uses {!Mclock} (monotonic), so NTP steps can neither fire nor
    starve a deadline.

    Two entry points:

    - {!check} is the legacy, non-resumable poll: on expiry it raises
      {!Deadline_exceeded}, which the degradation ladder catches to
      fall through to a cheaper rung.
    - {!poll} is the checkpoint-aware poll used by the engine with a
      snapshot hook ({!Rs_histogram.Opt_a}): it additionally signals
      [Checkpoint_due] on a configured cadence and reports expiry as a
      value, tagged with whether the governor's {!deadline_mode} asks
      for a resumable snapshot instead of degradation. *)

type expiry_reason =
  | Wall_clock  (** the [deadline] (seconds) passed *)
  | Poll_budget  (** the [poll_budget] (poll count) is exhausted *)
(** Why a governor expired.  The [elapsed]/[deadline] payload fields
    are seconds under [Wall_clock] but {e poll counts} under
    [Poll_budget] — always branch on the reason (or use
    {!describe_expiry}) before rendering them. *)

exception
  Deadline_exceeded of {
    stage : string;
    elapsed : float;
    deadline : float;
    reason : expiry_reason;
  }

exception Interrupted of { stage : string; checkpoint : string }
(** Raised by a checkpoint-capable engine {e after} it has written a
    resumable snapshot to [checkpoint], when its governor expired in
    {!Snapshot} mode.  The build did not finish, but no work is lost:
    re-run with the snapshot to continue from the last completed row. *)

type deadline_mode =
  | Degrade  (** expiry raises {!Deadline_exceeded} (ladder falls through) *)
  | Snapshot
      (** expiry asks the engine to write a snapshot and raise
          {!Interrupted} — "checkpoint and exit" for a timed-out build
          that should be resumed later rather than degraded *)

type outcome =
  | Continue
  | Checkpoint_due
      (** the checkpoint cadence elapsed; write a snapshot and carry on
          (the interval timer restarts at this signal) *)
  | Expired of {
      elapsed : float;
      deadline : float;
      resumable : bool;
      reason : expiry_reason;
    }
      (** deadline or poll budget exhausted; [resumable] reflects
          {!deadline_mode} = {!Snapshot}; [reason] says which limit
          fired and hence what unit [elapsed]/[deadline] carry.
          Engines without a snapshot path must treat it as
          {!Deadline_exceeded}. *)

type t

val create :
  ?deadline:float ->
  ?deadline_mode:deadline_mode ->
  ?checkpoint_interval:float ->
  ?poll_budget:int ->
  unit ->
  t
(** Start the clock now.  [deadline] is in seconds from now; omitting
    it yields a governor that never expires on time.  [poll_budget]
    expires the governor at the Nth {!poll}/{!check} — a deterministic,
    work-based deadline (used by kill-and-resume tests and batch
    schedulers that think in rows, not seconds); its [Expired] payload
    reports polls as [elapsed]/[deadline], tagged [Poll_budget].
    [checkpoint_interval] (seconds, [0.] = every poll) enables
    [Checkpoint_due] signalling.  Raises [Invalid_argument] on a
    non-positive deadline or budget. *)

val unlimited : t
(** Never expires, never requests checkpoints ([check] never raises).
    Immutable and freely shareable: polling it mutates nothing, so the
    process-wide default cannot leak state between unrelated builds or
    race across domains. *)

val deadline : t -> float option

val elapsed : t -> float
(** Monotonic seconds since [create]; [0.] for [unlimited] (it has no
    start time). *)

val expired : t -> bool
(** Whether the deadline has passed or the poll budget is exhausted
    (never for [unlimited]). *)

val poll : t -> outcome
(** Checkpoint-aware poll: never raises.  Counts against
    [poll_budget]. *)

val check : t -> stage:string -> unit
(** Raise [Deadline_exceeded] if the governor expired, tagging the
    failure with [stage] for the degradation report; [Checkpoint_due]
    signals are consumed silently.  Counts against [poll_budget]. *)

val budget_left : t -> int option
(** Polls remaining before a [poll_budget] governor expires ([Some 0]
    once exhausted); [None] when no poll budget is set (including
    {!unlimited}).  Admission controllers use this to route work that
    cannot fit the remaining budget to a cheaper rung {e before}
    starting it, instead of discovering the expiry halfway through. *)

val describe_expiry :
  reason:expiry_reason -> elapsed:float -> deadline:float -> string
(** Render an expiry payload in the units its [reason] implies:
    ["1.204s elapsed (deadline 1.000s)"] for [Wall_clock],
    ["12 of 16 polls (poll budget exhausted)"] for [Poll_budget].
    Every formatter that prints an expiry must go through this (or
    branch on the reason itself) — poll counts are not seconds. *)

val log_src : Logs.src
(** The [rs.governor] log source. *)
