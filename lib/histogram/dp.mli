(** Generic interval dynamic program for histogram construction.

    Minimizes [Σ_k cost(l_k, r_k)] over partitions of [1..n] into at most
    [buckets] contiguous buckets — the classical O(n²·B) scheme shared by
    V-Optimal, SAP0, SAP1 and A0 (each of which supplies its own O(1)
    bucket-cost function from {!Cost}).

    [cost] must be non-negative; additivity across buckets is the
    caller's responsibility (it holds exactly for SAP0/SAP1 thanks to the
    Decomposition Lemma, and by construction for point-query costs).

    {2 Governance}

    Sequentially, each level is swept in j-tiles of 256 candidates and
    the governor is checked once per (tile, cell) visited: once per
    cell while [n ≤ 256], and never more than 256 transitions between
    two checks above it.  Expiry raises
    {!Rs_util.Governor.Deadline_exceeded} tagged with [stage], whatever
    the governor's deadline mode — no DP engine writes snapshots
    (checkpoint/resume belongs to {!Opt_a}).

    {2 Parallelism}

    [jobs > 1] runs each level's cells across a {!Rs_util.Pool} of that
    many workers.  Cell [(k, i)] reads only the completed level [k−1]
    and writes only its own slots, so the result is
    bit-identical to the sequential run for every job count.  The
    governor check moves to per-chunk on the coordinator (chunks are a
    fixed 64 cells, so poll counts line up across job counts); workers
    never poll or trip faults. *)

type result = {
  cost : float;  (** optimal objective value *)
  bucketing : Bucket.t;
}

val log_src : Logs.src
(** The [rs.dp] log source, shared by every DP engine in this library
    (the level engine, the monotone engine, and the OPT-A state-space
    DP). *)

type engine =
  | Auto  (** monotone when the cost is QI-certified, level otherwise *)
  | Level
      (** always the classical level engine — the reference that
          timing comparisons and engine twins hold fixed *)

val solve :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** [solve ~n ~buckets ~cost ()] runs the DP.  [buckets] is clamped to
    [\[1, n\]].  The returned bucketing may use fewer than [buckets]
    buckets when that is no worse.  [governor] is checked as described
    under {e Governance} above (never per transition); on expiry it
    raises {!Rs_util.Governor.Deadline_exceeded} tagged with [stage].  [jobs]
    (default 1) parallelizes each level across a worker pool with
    bit-identical results; [cost] must then be safe to call from
    several domains at once (the {!Cost} context closures are: they
    only read prefix arrays). *)

val solve_exact_buckets :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** Same, but the partition uses exactly [min buckets n] buckets — used
    by comparisons that must hold the bucket count fixed. *)

(** {2 Monotone divide-and-conquer engine}

    For costs satisfying the quadrangle inequality
    [w(a,c) + w(b,d) ≤ w(b,c) + w(a,d)] ([a ≤ b ≤ c ≤ d]), the leftmost
    argmin of each level is nondecreasing, so a divide-and-conquer over
    the level (solve the middle cell, split the candidate range at its
    argmin) costs O(n log n) transitions per level instead of O(n²) —
    see THEORY.md §11 for the derivation and the per-cost certificates.

    The monotone engine is {e sequential-only}: it fills each level in
    divide-and-conquer order, and no worker pool is ever involved;
    {!solve_with} runs a certified cost here even when [jobs > 1] (one
    sequential O(n log n) level beats a parallel O(n²) one).  Both
    engines relax cells through the same transition loop and break ties
    identically (leftmost argmin), so under a valid certificate they
    return the same bucketing, not just the same cost. *)

val solve_monotone :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** Divide-and-conquer counterpart of {!solve}.  Only valid for
    QI-certified costs — on a cost violating the quadrangle inequality
    the result may be suboptimal (callers go through {!solve_with},
    which enforces the certificate).  The governor is checked once per
    cell via {!Rs_util.Governor.check}: expiry always raises
    {!Rs_util.Governor.Deadline_exceeded}. *)

val solve_monotone_exact_buckets :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** Divide-and-conquer counterpart of {!solve_exact_buckets}. *)

val use_monotone : engine:engine -> certified:bool -> bool
(** The engine-selection predicate behind {!solve_with}: [true] iff
    [engine = Auto] and [certified]. *)

val solve_with :
  ?engine:engine ->
  certified:bool ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** [solve] or [solve_monotone] according to {!use_monotone}
    ([engine] defaults to [Auto], [jobs] to 1; the monotone engine
    ignores [jobs]).  The decomposable method builders ({!Vopt},
    {!Sap0}, {!Sap1}, {!A0}, {!Prefix_opt}) all dispatch through here;
    [certified] is the method's own statement that its cost carries a
    THEORY.md §11 quadrangle certificate. *)
