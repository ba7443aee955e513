(** Histograms that are optimal for {e prefix} range queries only —
    the restricted query class for which optimal constructions were
    known before this paper (the paper's introduction cites
    hierarchical/prefix-range results as the prior state of the art).

    A prefix query is [(1, b)].  Under answering procedure (1) the
    buckets left of [buck(b)] contribute exactly, so the error of query
    [(1, b)] is the single end-piece term [δ^pre_b], and the total
    prefix-SSE is a sum of independent per-bucket costs — no cross
    terms, hence a plain O(n²B) DP is exactly optimal.

    Included to let the experiments quantify the paper's motivating
    observation: optimizing for a restricted query class (points,
    prefixes) is {e not} enough for general ranges. *)

val build :
  ?engine:Dp.engine ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t

val build_with_cost :
  ?engine:Dp.engine ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t * float
(** The cost is the SSE over the [n] prefix queries (not all ranges).
    [governor]/[stage] govern the underlying {!Dp} (see {!Dp.solve}).
    [engine] (default [Auto]) may take {!Dp.solve_monotone} on sorted
    inputs (the prefix cost's QI certificate, THEORY.md §11). *)
