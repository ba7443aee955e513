(** SAP1: the higher-order suffix/prefix histogram of Section 2.2.2.

    Buckets store the coefficients of the least-squares linear fits to
    their suffix and prefix sums; cross terms vanish as for SAP0, so the
    O(n²B) dynamic program is exactly range-optimal among SAP1
    histograms (Theorem 8).  Storage: 5B words.  For equal bucket
    counts, SAP1 is never worse than OPT-A (it strictly generalizes the
    average-based answering). *)

val build :
  ?engine:Dp.engine ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t

val build_with_cost :
  ?engine:Dp.engine ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t * float
(** The DP objective equals the true range-SSE of the histogram.
    [governor]/[stage]/[jobs] reach the underlying {!Dp} (see
    {!Dp.solve}; level-parallel and bit-identical when [jobs > 1]).  The SAP1
    cost violates the quadrangle inequality even on sorted data
    (THEORY.md §11), so it is never monotone-certified: every [engine]
    runs the level engine. *)
