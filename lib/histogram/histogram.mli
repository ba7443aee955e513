(** Histogram synopses: a bucketing plus per-bucket summary statistics,
    with the paper's answering procedures.

    Three representations are supported, mirroring Sections 2.1–2.2:

    - {b Avg}: one value per bucket (classical).  A query [(a,b)] is
      answered by formula (1): overlap-weighted bucket values
      [ŝ[a,b] = Σ_i |[a,b] ∩ bucket_i| · v_i].  Used by OPT-A, A0,
      POINT-OPT, the equi-* baselines, NAIVE, and re-optimized
      histograms (whose [v_i] need not be averages).  Storage: 2 words
      per bucket.
    - {b Sap0}: stored suffix/prefix averages.  Inter-bucket queries are
      answered by [suff(buck a) + exact middle + pref(buck b)];
      intra-bucket queries by [(b−a+1)·avg] where the average is
      recovered as [(suff+pref)/(m+1)].  Storage: 3 words per bucket.
    - {b Sap1}: stored suffix/prefix linear fits (slope and intercept as
      functions of the global position).  Storage: 5 words per bucket.

    [estimate] is O(log B) per query (the bucket lookups) after O(B)
    precomputation held inside [t]; [t] holds O(B) words. *)

type repr =
  | Avg of float array  (** value per bucket *)
  | Sap0 of { suff : float array; pref : float array }
  | Sap0_explicit of {
      avg : float array;
      suff : float array;
      pref : float array;
    }
      (** SAP0 answering with an explicitly stored per-bucket average —
          used by the workload-weighted variant, where the suffix and
          prefix values are weighted means and the [(suff+pref)/(m+1)]
          recovery identity no longer holds.  Storage: 4 words per
          bucket. *)
  | Sap1 of {
      suff : Rs_linalg.Regression.fit array;
      pref : Rs_linalg.Regression.fit array;
    }

type t

val make : ?rounded:bool -> ?name:string -> Bucket.t -> repr -> t
(** Assembles a histogram.  Array lengths must equal the bucket count.
    [rounded] applies the paper's [⌊·⌉] integer rounding to every
    answer (default [false]).  [name] tags the construction method for
    reports. *)

val bucketing : t -> Bucket.t
val repr : t -> repr
val name : t -> string
val rounded : t -> bool
val buckets : t -> int

val storage_words : t -> int
(** 2B / 3B / 5B following the paper's accounting (Theorems 4, 7, 8,
    10). *)

val estimate : t -> a:int -> b:int -> float
(** Approximate [s[a,b]], [1 ≤ a ≤ b ≤ n].  O(log B): two
    {!Bucket.bucket_of} searches, then O(1) arithmetic. *)

(** {2 Evaluation lowering}

    An algebraic restatement of {!estimate} that lets full-SSE
    measurement run in O(n) ({!Rs_query.Error.sse_prefix_form} /
    [sse_piecewise_form]) instead of the O(n²) all-ranges sweep.  The
    lowering is exact: for every query the lowered answer equals
    {!estimate} (the test suite checks fast path = sweep for every
    representation). *)

type lowering =
  | Prefix_form of float array
      (** [ŝ[a,b] = Ĉ[b] − Ĉ[a−1]] for the returned vector
          [Ĉ[0..n]] ([Ĉ[0] = 0]).  All [Avg] histograms lower to this
          form. *)
  | Piecewise_form of {
      right : float array;
          (** [right.(v)], [v ∈ [1,n]]: the answer contribution of a
              query ending at [v] in a different bucket than it starts *)
      left : float array;
          (** [left.(u)], [u ∈ [0,n−1]]: likewise for a query starting
              at [u+1]; inter-bucket answers are
              [right.(b) −. left.(a−1)] *)
      windows : (int * int * float) array;
          (** per-bucket [(l, r, value)]: queries with both endpoints in
              [[l,r]] are answered [(b−a+1)·value] instead *)
    }  (** SAP0/SAP1 representations, whose intra- and inter-bucket
          answering procedures differ. *)
  | Opaque
      (** no O(n) form — rounded histograms ([Float.round] per answer is
          nonlinear); callers fall back to the sweep. *)

val lowering : t -> lowering

val avg_values : t -> float array
(** The per-bucket values used for intra-bucket answering: the stored
    values for [Avg], the recovered averages for [Sap0]/[Sap1].  Fresh
    array. *)

val cum_vector : t -> float array
(** The cumulative weighted sums [estimate] answers middles from:
    [cum.(k) = Σ_{k'<k} width_{k'}·avg_{k'}], length [buckets+1].
    Fresh array, bit-exact — [Rs_core.Synopsis.batch_plan] compiles
    batch-evaluation tables from it and the batch kernel's answers
    must stay bit-identical to [estimate]'s. *)

val with_values : t -> ?name:string -> float array -> t
(** Replace the per-bucket values of an [Avg] histogram (used by
    re-optimization).  Raises [Invalid_argument] on other
    representations or on length mismatch. *)

val merge : t -> t -> t
(** [merge h1 h2] summarizes [A1 + A2] given [Avg] histograms of [A1]
    and [A2] over the same domain — the histogram-side pairing of
    {!Rs_wavelet.Synopsis.merge}.  The result's bucketing is the
    common refinement (union of the two right-endpoint sets) and each
    refined bucket's value is the sum of the two per-position
    densities, so merged answers equal the sum of the inputs' answers
    (up to float association; exact as a density model).  The merged
    budget is at most [2·(B1 + B2)] words and the name is bounded
    (one ["+merged"] suffix, never more, however long the chain).
    Raises [Invalid_argument] on domain-size mismatch, rounded inputs,
    or non-[Avg] representations. *)

val refresh : t -> Rs_util.Prefix.t -> t
(** [refresh t p] re-values an [Avg] histogram on its {e existing}
    boundaries from the current data: each bucket's value becomes the
    bucket mean under [p] — the optimal constant per bucket
    (THEORY.md), making this the cheap staleness repair that keeps
    boundaries while the full rebuild re-optimizes them.  The name is
    preserved.  Raises [Invalid_argument] on domain-size mismatch or
    non-[Avg] representations. *)

val pp : Format.formatter -> t -> unit
