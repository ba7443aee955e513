(** POINT-OPT: the V-Optimal histogram for point (equality) queries
    [Jagadish et al.], the paper's Section-4 baseline.

    The dynamic program minimizes the per-point squared error with
    weights adjusted "to reflect the probability that A[i] is part of a
    random range-query", i.e. [w_i ∝ i(n−i+1)]; the stored bucket value
    is the corresponding weighted mean.  With [weighted:false] this is
    the textbook V-Optimal histogram (uniform weights, plain means).
    O(n²B) either way. *)

val build :
  ?weighted:bool ->
  ?engine:Dp.engine ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t
(** [weighted] defaults to [true] (the paper's adjustment).  [jobs]
    reaches the underlying {!Dp} (level-parallel, bit-identical).
    [engine] (default [Auto]) selects the DP engine: both point costs
    carry the sorted-data QI certificate, so on monotone inputs [Auto]
    takes {!Dp.solve_monotone} whatever [jobs] is. *)

val build_with_cost :
  ?weighted:bool ->
  ?engine:Dp.engine ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t * float
(** Also returns the DP objective — the (weighted) point-query SSE, not
    the range SSE. *)
