(** Experiment S1 (extension) — construction cost and quality of the
    polynomial-time methods as the domain grows, plus a jobs sweep
    measuring the level-parallel OPT-A engine.

    The paper notes OPT-A's pseudopolynomial construction "will be
    infeasible for realistic datasets"; SAP0/SAP1/A0 (O(n²B)) and the
    wavelet selections (O(n log n)) are the practical alternatives.
    This sweep quantifies that on Zipf data at n = 127..1023.  The jobs
    sweep runs the {e exact} OPT-A DP at several worker-domain counts
    so its speedup is measured, not asserted (results are bit-identical
    across job counts — the sweep also reports SSE and state counts so
    a regression there is visible in the same table). *)

type row = {
  n : int;
  method_name : string;
  seconds : float;
  sse : float;
}

val default_ns : int list
(** [127; 255; 511; 1023] — powers of two minus one so the wavelet
    prefix domain needs no padding. *)

val default_methods : string list
(** The polynomial constructions: sap0, sap1, a0, point-opt, topbb,
    wave-range-opt, equi-depth. *)

val run :
  ?ns:int list ->
  ?methods:string list ->
  ?budget_words:int ->
  ?options:Rs_core.Builder.options ->
  unit ->
  row list
(** Budget defaults to 32 words.  Datasets are seeded Zipf(1.8) with
    total mass 80·n.  [options] reaches {!Rs_core.Builder.build}
    (notably [options.jobs] for the DP-backed methods). *)

val table : row list -> string
(** Pivot: rows (method), columns (n), cells "seconds / sse".  Rows are
    indexed by [(method, n)] before rendering, so the table stays
    linear in the row count. *)

(** {2 Jobs sweep (level-parallel OPT-A)} *)

type jobs_row = {
  jobs : int;  (** worker-domain count handed to {!Rs_histogram.Opt_a} *)
  seconds : float;  (** monotonic wall time of the exact DP alone *)
  sse : float;  (** must be identical across job counts *)
  states : int;  (** must be identical across job counts *)
}

val default_jobs : int list
(** [1; 2; 4]. *)

val run_jobs :
  ?dataset:string ->
  ?jobs_list:int list ->
  ?buckets:int ->
  ?max_states:int ->
  ?x:int ->
  unit ->
  jobs_row list
(** Time exact OPT-A on [dataset] (default ["paper"], the Figure-1
    data) at each job count.  A single OPT-A-ROUNDED pass outside the
    timed region seeds one shared SSE upper bound, so every run prunes
    with the same Λ cap and the timings compare only the level sweep.
    [x > 1] pre-rounds the data to multiples of [x] (the Definition-3
    transform) before the sweep, so a tight [max_states] still fits —
    the timed engine is unchanged; raises
    {!Rs_histogram.Opt_a.Too_many_states} if even the rounded DP
    exceeds the budget (callers may retry with a coarser [x]). *)

val speedup_vs_sequential : jobs_row list -> jobs_row -> float
(** [t(jobs=1) / t(r.jobs)]; 1.0 when no sequential row exists. *)

val jobs_table : jobs_row list -> string
