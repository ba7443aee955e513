(** SAP0: the suffix/average/prefix histogram of Section 2.2.1.

    By the Decomposition Lemma the range-SSE of a SAP0 histogram is a
    sum of independent per-bucket costs, so the O(n²B) dynamic program
    returns the histogram that is {e exactly} range-optimal among all
    SAP0 histograms (boundaries and summary values simultaneously —
    Theorem 6).  Storage: 3B words (Theorem 7). *)

val build :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t

val build_with_cost :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t * float
(** The returned cost is the DP objective, which for SAP0 equals the
    true range-SSE of the histogram.  [governor]/[stage]/[jobs] reach
    the underlying {!Dp} (see {!Dp.solve}; level-parallel and
    bit-identical when [jobs > 1]).  The SAP0 cost is never
    monotone-certified (it violates the quadrangle inequality even on
    sorted data), so it always runs the level engine. *)
