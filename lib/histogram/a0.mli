(** A0: the Section-4 heuristic — SAP0's dynamic-programming set-up
    driven by the average-based answering procedure (1), with the cross
    term of equation (2) ignored.

    The resulting histogram stores only the bucket average (2B words,
    Theorem 10) and is generally good but {e not} optimal: the ignored
    cross term means the DP objective under-approximates the true SSE.
    [build_with_cost] therefore returns the DP objective, and callers
    measure the real SSE separately. *)

val build :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t

val build_with_cost :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t * float
(** [governor]/[stage] govern the underlying {!Dp} (see {!Dp.solve}
    for the poll cadence); OPT-A's key-cap derivation passes its
    governor through here so even the seeding work respects a deadline.
    The A0 cost is never monotone-certified (quadrangle inequality fails
    even on sorted data), so it always runs the level engine. *)
