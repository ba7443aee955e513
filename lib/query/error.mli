(** Quality metrics for range-sum estimators.

    The paper's figure of merit is the sum-squared error over all
    [n(n+1)/2] ranges,
    [SSE = Σ_{a≤b} (s[a,b] − ŝ[a,b])²].
    [sse_all_ranges] evaluates it for an arbitrary estimator in
    O(n²·cost(ŝ)); [sse_prefix_form] evaluates it in O(n) for estimators
    of the form [ŝ[a,b] = D̂[b] − D̂[a−1]] via the identity

    [Σ_{0≤u<v≤n} (d_v − d_u)² = (n+1)·Σ d² − (Σ d)²]   with [d = P − D̂].

    The two must agree for prefix-form estimators — a property the test
    suite checks extensively. *)

type estimator = a:int -> b:int -> float
(** [estimate ~a ~b ≈ s[a,b]], for [1 ≤ a ≤ b ≤ n]. *)

val sse_all_ranges : Rs_util.Prefix.t -> estimator -> float
(** Exact SSE over all ranges, by enumeration. *)

val sse_prefix_form : Rs_util.Prefix.t -> float array -> float
(** [sse_prefix_form p d_hat] where [d_hat] is the approximate prefix
    vector [D̂[0..n]] (length [n+1]).  Closed form, O(n). *)

val sse_two_sided_form : Rs_util.Prefix.t -> right:float array -> left:float array -> float
(** SSE for estimators of the two-endpoint form
    [ŝ[a,b] = right[b] − left[a−1]] (both vectors length [n+1];
    [right.(0)] and [left.(n)] are unused).  O(n) via one backward sweep
    over suffix sums.  With [right = left] this equals
    {!sse_prefix_form}. *)

val sse_piecewise_form :
  Rs_util.Prefix.t ->
  right:float array ->
  left:float array ->
  buckets:(int * int * float) array ->
  float
(** SSE for histogram-style estimators that answer
    [right[b] − left[a−1]] when [a] and [b] fall in different buckets
    and [(b−a+1)·value] when both fall inside a window [(l, r, value)].
    The windows must be disjoint subranges of [[1, n]] (the standard
    bucketing); queries outside every window are charged the two-sided
    form.  O(n): the two-sided total, minus each window's two-sided
    same-bucket contribution, plus each window's intra error via the
    pair identity over [g_t = P[t] − t·value]. *)

val sse_of_workload : Rs_util.Prefix.t -> Workload.t -> estimator -> float
(** Weighted SSE over an explicit workload (domain sizes must match). *)

type metrics = {
  sse : float;
  rmse : float;  (** √(SSE / #queries) *)
  max_abs : float;
  mean_abs : float;
  mean_rel : float;
      (** relative error per query with sanity denominator
          [max(|s|, 1)] *)
}

val metrics_all_ranges : Rs_util.Prefix.t -> estimator -> metrics

val naive_estimator : Rs_util.Prefix.t -> estimator
(** The paper's NAIVE baseline: answers with the global average,
    [ŝ[a,b] = (b−a+1)·s[1,n]/n].  Storage: one word. *)
