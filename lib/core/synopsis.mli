(** The unified synopsis type: every summary representation in the
    library behind one estimator interface.

    Downstream code (approximate query answering, selectivity
    estimation, the experiment harness) works against this type and
    never needs to know whether the summary is a histogram or a wavelet
    coefficient set. *)

type t =
  | Histogram of Rs_histogram.Histogram.t
  | Wavelet of Rs_wavelet.Synopsis.t

val name : t -> string
(** Construction-method tag (e.g. ["opt-a"], ["sap0"], ["topbb"]). *)

val storage_words : t -> int
(** Machine words the summary occupies under the paper's accounting. *)

val estimate : t -> a:int -> b:int -> float
(** Approximate range sum [s[a,b]], [1 ≤ a ≤ b ≤ n].  O(1). *)

val estimator : t -> Rs_query.Error.estimator
(** The same as a bare function, for the error module. *)

val point : t -> i:int -> float
(** Approximate [A[i]] (the equality query [(i,i)]). *)

val domain_size : t -> int
(** The [n] of the underlying attribute domain. *)

val quantile : t -> q:float -> int
(** [quantile t ~q] is the smallest position [b] whose estimated prefix
    mass [ŝ[1,b]] reaches a fraction [q] of the estimated total — the
    approximate q-quantile of the distribution the synopsis summarizes
    (used e.g. to seed equi-depth partitioning or report medians from
    catalog statistics).  [q] is clamped to [\[0, 1\]]; returns [n] if
    the estimate never reaches the target (possible for non-monotone
    estimators). *)

val sse : Dataset.t -> t -> float
(** Exact SSE over all ranges.  O(n) for every synopsis that lowers to
    a prefix-form, two-sided or piecewise closed form (all wavelet
    synopses and all non-rounded histograms — see
    {!Rs_histogram.Histogram.lowering}); falls back to the O(n²)
    enumeration only for rounded histograms. *)

val sse_sweep : Dataset.t -> t -> float
(** The O(n²) enumeration ({!Rs_query.Error.sse_all_ranges}),
    unconditionally — the brute-force twin of {!sse}.  The test suite
    checks [sse = sse_sweep] for every representation. *)

val prefix_vector : t -> float array option
(** [Some Ĉ] when every answer is [Ĉ[b] − Ĉ[a−1]]: [Avg]-representation
    non-rounded histograms and shared-prefix wavelet synopses. *)

val prefix_and_sse :
  ?dataset:Dataset.t -> t -> float array option * float option
(** [(prefix_vector t, Option.map (fun ds -> sse ds t) dataset)] from
    one lowering pass — what a serving generation needs per entry.  The
    dataset must have the synopsis' domain size. *)

val batch_plan : t -> Rs_query.Batch.t
(** Compile the synopsis into a vectorized batch-evaluation plan.
    O(n) once; the plan's answers are bit-identical to {!estimate}'s
    for every valid range — the serving layer evaluates whole requests
    through {!Rs_query.Batch.eval} and its responses are contractually
    byte-deterministic, so this equivalence is pinned by twin tests
    over every representation (Avg, SAP0, explicit SAP0, SAP1, rounded
    histograms, shared-prefix and two-sided wavelets). *)

val metrics : Dataset.t -> t -> Rs_query.Error.metrics
(** Full error metrics over all ranges. *)

val workload_sse : Dataset.t -> Rs_query.Workload.t -> t -> float
(** Weighted SSE over an explicit workload. *)

val describe : t -> string
(** One-line human-readable description. *)

val merge : t -> t -> t
(** [merge t1 t2] summarizes [A1 + A2] given synopses of [A1] and [A2]
    over the same domain — dispatches to
    {!Rs_histogram.Histogram.merge} or {!Rs_wavelet.Synopsis.merge}.
    Raises on family mismatch ([Invalid_input]) or the underlying
    merge's own domain checks. *)

val merge_result : t -> t -> (t, Rs_util.Error.t) result
(** {!merge} behind the typed-error boundary. *)
