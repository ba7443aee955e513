(** Wavelet synopses: a sparse set of Haar coefficients used as summary
    statistics for range-sum queries (Section 3 of the paper).

    Two coefficient domains are supported:

    - {b Data domain} — coefficients of the frequency vector [A] itself
      (zero-padded to a power of two).  Keeping the B largest
      coefficients is the classical heuristic (Matias–Vitter–Wang), the
      paper's [TOPBB]; it is optimal for {e point} queries by Parseval
      but not for ranges.  [top_b_range_weighted] is the natural
      range-aware improvement: it scores each coefficient by the exact
      SSE its removal alone would cost over all ranges,
      [c_k²·((n+1)·ΣI_k² − (ΣI_k)²)] with [I_k] the prefix integral of
      [ψ_k] — still a heuristic because dropped coefficients interact.
    - {b Prefix domain} — coefficients of the prefix-sum vector
      [D[0..n]] (padded by repeating [D[n]]).  Range queries are prefix
      differences, every non-scaling Haar vector sums to zero, and the
      scaling coefficient is a constant shift that cancels in
      differences, so the range-SSE of a kept set [S] is {e exactly}
      [(n+1)·Σ_{k∉S, k≠0} γ_k²] (when [n+1] is a power of two; padding
      adds boundary terms otherwise).  Hence [range_optimal] — keep the
      B largest-magnitude detail coefficients — is the provably optimal
      B-term Haar synopsis for range queries, in O(n log n) time: the
      realization of the paper's Theorem 9.

    Storage accounting: 2 words per kept coefficient (index + value).
    Queries are answered in O(1) from a precomputed approximate prefix
    vector (the synopsis proper remains the coefficient set). *)

type domain = Data | Prefix_sums

type t

val domain : t -> domain
val n : t -> int
val name : t -> string

val coefficients : t -> (int * float) array
(** The kept [(index, value)] pairs, sorted by index.  Fresh array. *)

val storage_words : t -> int
(** [2 × #coefficients]. *)

val top_b_data : float array -> b:int -> t
(** [TOPBB]: largest-magnitude coefficients of the data vector.
    [b] is clamped to the padded length; requires [b ≥ 1] and non-empty
    data. *)

val top_b_range_weighted : float array -> b:int -> t
(** Data-domain selection scored by per-coefficient range-SSE
    contribution (see above). *)

val range_optimal : float array -> b:int -> t
(** The provably range-optimal synopsis (prefix domain, Theorem 9). *)

val range_optimal_for_sse : float array -> max_sse:float -> t
(** Smallest-budget range-optimal synopsis whose SSE over all ranges is
    at most [max_sse] — possible because the residual error of a kept
    set is known in closed form at selection time
    ([(n+1)·Σ dropped γ²]).  Requires [max_sse ≥ 0]; the result may keep
    zero coefficients if the target is loose.  Exact when [n+1] is a
    power of two; with padding the predicted value is an approximation
    (see {!predicted_sse}). *)

val predicted_sse : t -> float option
(** The construction-time prediction of the SSE over all ranges —
    [Some] for synopses built by [range_optimal]/[range_optimal_for_sse]
    (exact when [n+1] is a power of two), [None] for heuristic
    selections and after {!update} or {!merge} (the dropped-coefficient
    energy is no longer known). *)

val merge : t -> t -> t
(** [merge s1 s2] summarizes [A1 + A2] given synopses of [A1] and [A2]
    over the same domain — the distributed-construction primitive.
    Coefficients are linear in the data, so the union of the kept sets
    with summed values represents the sum exactly on those indices; the
    result is truncated back to [max] of the two budgets by magnitude
    (the standard mergeable-synopsis heuristic).  Truncation order is
    {b deterministic}: magnitude descending, equal-[|γ|] ties broken by
    {e lowest coefficient index} — so merge results are byte-stable
    across chains, accumulation orders, and job counts (pinned by the
    [@stream] equal-magnitude fixture).  Exactly-cancelled (zero-sum)
    coefficients are dropped before truncation, and the result's name
    is bounded: [s1]'s name gains one ["+merged"] suffix, never more,
    however long the merge chain.  Both synopses must share the domain
    kind and size; two-sided synopses are not supported.  Raises
    [Invalid_argument] on mismatch. *)

val aa_2d : float array -> b:int -> t
(** The paper's literal Theorem-9 route: top-B 2-D Haar coefficients of
    the virtual range-sum array [AA[i,j] = s[i,j]].  Because [AA] is
    rank-2, its nonzero 2-D coefficients are the prefix-vector details
    duplicated on the two query endpoints, so the budget is split —
    ⌈B/2⌉ details approximate the right endpoint and ⌊B/2⌋ the left.
    [range_optimal] shares one approximation between both endpoints and
    is the better use of the same storage (the experiments quantify
    this); [aa_2d] is kept as the faithful ablation. *)

val sides : t -> (int * float) array * (int * float) array option
(** The right/shared coefficient set and, for two-sided ([aa_2d])
    synopses, the left-endpoint set — the exact information a
    serializer must preserve. *)

val of_two_sided :
  ?name:string -> n:int -> (int * float) array -> (int * float) array -> t
(** [of_two_sided ~n right left] rebuilds a two-sided prefix-domain
    synopsis from its parts (inverse of {!sides} for [aa_2d]-style
    synopses).  Indices must be valid detail indices of the padded
    prefix transform; duplicates within one side are rejected. *)

val of_coefficients :
  ?name:string -> n:int -> domain -> (int * float) array -> t
(** Assemble a synopsis from explicit coefficients (for tests and
    ablations).  Indices refer to the padded transform of the given
    domain; duplicates are rejected. *)

val estimate : t -> a:int -> b:int -> float
(** Approximate [s[a,b]], [1 ≤ a ≤ b ≤ n].  O(1). *)

val point_estimate : t -> i:int -> float
(** Approximate [A[i]]. *)

val update : t -> i:int -> delta:float -> t
(** [update t ~i ~delta] is the synopsis after the point update
    [A[i] ← A[i] + delta] — the dynamic-maintenance operation of the
    wavelet-synopsis literature the paper builds on.

    The {e kept} coefficients are corrected exactly: a point update
    touches O(log n) Haar coefficients in the data domain, and in the
    prefix domain it shifts [D[t]] for [t ≥ i], changing detail [k] by
    [−delta·I_k(i−1)], which is nonzero for O(log n) details.  The
    coefficients that were {e dropped} at selection time also drift, so
    the synopsis slowly loses optimality; callers should rebuild after
    many updates (the usual practice).  Two-sided ([aa_2d]) synopses are
    supported; the kept index set is never re-chosen. *)

val prefix_hat : t -> float array
(** The approximate prefix vector [D̂[0..n]] the synopsis induces
    (length [n+1]); feed to {!Rs_query.Error.sse_prefix_form} for O(n)
    exact SSE evaluation.  For [Prefix_sums] synopses the vector is
    shifted so [D̂[0] = 0] (the shift is immaterial to range queries). *)

val prefix_hat_left : t -> float array option
(** For two-sided ([aa_2d]) synopses, the left-endpoint approximate
    prefix vector [Ê[0..n]]: every answer is
    [ŝ[a,b] = D̂[b] − Ê[a−1]], so the exact SSE is
    {!Rs_query.Error.sse_two_sided_form} on [(prefix_hat,
    prefix_hat_left)] in O(n).  [None] when both endpoints share one
    prefix vector (every synopsis except [aa_2d]). *)
