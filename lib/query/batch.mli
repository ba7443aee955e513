(** Vectorized batch evaluation of range-sum estimates.

    A compiled plan answers all k ranges of a request in O(k) off
    {!Rs_util.Tab}-backed per-bucket tables, with the representation
    dispatch hoisted out of the per-range loop — the serving hot path
    ([Rs_serve.Server]) evaluates one 64-range chunk per governor poll
    through {!eval} (the bound rung: the whole request after one poll)
    instead of calling the per-range estimator k times.  A plan is the
    only domain-wide state a served entry holds.

    Bit-identity contract: for a plan compiled from a synopsis (see
    [Rs_core.Synopsis.batch_plan]), {!eval} reproduces the per-range
    [estimate] arithmetic operation for operation, so the answers are
    bit-identical — server responses are contractually
    byte-deterministic and the batch/per-range twin tests compare
    results via [Int64.bits_of_float].

    Plans are compiled once (per store generation) and never mutated;
    they are plain lookup tables, safe to read from [Pool] workers. *)

type t

type ends_spec =
  | Avg
      (** endpoints answered with overlap-weighted bucket values
          (histogram [Avg] representation) *)
  | Const of { suff : float array; pref : float array }
      (** stored suffix/prefix averages (SAP0 / explicit SAP0) *)
  | Affine of {
      suff_slope : float array;
      suff_intercept : float array;
      pref_slope : float array;
      pref_intercept : float array;
    }
      (** stored linear fits evaluated at the global endpoint position
          (SAP1): [slope·x + intercept], exactly
          [Rs_linalg.Regression.predict]'s operation order *)

val two_sided : n:int -> right:float array -> left:float array option -> t
(** Plan answering [ŝ(a,b) = right.(b) −. left.(a−1)] over endpoint
    prefix vectors of length [n+1] ([left = None] shares [right] — the
    wavelet shared-prefix case).  Arrays are copied into unboxed
    tables.  Raises [Invalid_argument] on length mismatch. *)

val bucketed :
  n:int ->
  rounded:bool ->
  bucket_lo:int array ->
  bucket_hi:int array ->
  avg:float array ->
  cum:float array ->
  ends_spec ->
  t
(** Histogram plan: [bucket_lo]/[bucket_hi] are 1-based bucket bounds
    tiling [1..n] in order (the plan derives its position→bucket index
    from them), [avg] the per-bucket intra value, [cum] the cumulative
    weighted sums (length buckets+1).  [rounded] applies [Float.round]
    per answer, after the raw estimate — the same place
    [Histogram.estimate] rounds.  Raises [Invalid_argument] on
    inconsistent shapes or bounds that do not tile [1..n]. *)

val n : t -> int
(** Domain size the plan answers over. *)

val eval : t -> ranges:(int * int) array -> lo:int -> hi:int -> out:float array -> unit
(** [eval t ~ranges ~lo ~hi ~out] writes the estimate for
    [ranges.(i)] into [out.(i)] for [lo ≤ i ≤ hi] ([hi < lo] is a
    no-op).  O(hi−lo+1).  Raises [Invalid_argument] if the span falls
    outside [ranges]/[out] or any visited range leaves [1..n] — the
    inner loops use unsafe table loads, so the range guard is part of
    the loop, never skipped. *)
