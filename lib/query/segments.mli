(** Combined range-query evaluation over a segmented synopsis.

    A segmented synopsis partitions the domain [1..n] into [S]
    contiguous segments, keeps an independent estimator per segment in
    {e local} coordinates [1..width], and stores each segment's exact
    total mass alongside it (one extra word per segment).  A global
    range query [(a, b)] is then answered by decomposition:

    - both endpoints in the same segment — the segment's own estimate;
    - endpoints in segments [i < j] — the {e suffix} estimate of
      segment [i], plus the {e exact} stored totals of every interior
      segment, plus the {e prefix} estimate of segment [j].

    Because interior segments contribute exactly, the error of any
    cross-segment query is [e_suf_i(a) + e_pre_j(b)] — a sum of one
    suffix-error term and one prefix-error term.  That makes the total
    SSE over all [n(n+1)/2] ranges decompose into per-segment moments
    (the boundary corrections):

    [SSE = Σ_i Intra_i
         + Σ_{i<j} (w_j·SS_i + w_i·PP_j + 2·S1_i·P1_j)]

    where [SS_i/S1_i] are the second/first moments of segment [i]'s
    suffix errors, [PP_j/P1_j] those of segment [j]'s prefix errors and
    [w] the widths.  {!sse} evaluates this in O(n + S) estimator calls
    — the segmented continuation of the PR-4 O(n) SSE lowerings — and
    is checked against the brute-force {!Error.sse_all_ranges} over
    {!estimator} by the test suite. *)

type part = {
  width : int;  (** segment width [w ≥ 1] *)
  total : float;  (** exact [Σ A] over the segment (stored, 1 word) *)
  est : a:int -> b:int -> float;
      (** the segment's estimator in local coordinates
          [1 ≤ a ≤ b ≤ width] *)
}

val estimator : part array -> Error.estimator
(** [estimator parts ~a ~b] answers the global range [(a, b)] by the
    decomposition above.  Widths must cover the domain in order; O(S)
    setup, O(log S) per query (binary search for the endpoint
    segments), O(1) estimator calls.  Raises [Invalid_argument] on an
    empty part list, a non-positive width, or an out-of-domain query. *)

val locate : int array -> int -> int
(** [locate o a] is the largest [i] with [o.(i) < a], for a
    non-decreasing offset array [o] with [o.(0) < a ≤ o.(length − 1)]:
    the segment holding position [a] when segment [i] spans
    [o.(i)+1 .. o.(i+1)].  O(log (length o)). *)

val sse : Rs_util.Prefix.t -> parts:part array -> intra:float array -> float
(** Exact SSE over all global ranges.  [intra.(i)] must be segment
    [i]'s SSE over {e its own} local ranges (e.g.
    [Rs_core.Synopsis.sse] on the segment's sub-dataset — O(w) for
    every lowered representation); the cross-segment terms are computed
    here from suffix/prefix error moments in O(n) estimator calls plus
    O(S) combination.  [Invalid_argument] if the widths don't sum to
    the prefix table's [n] or [intra] has the wrong length. *)
