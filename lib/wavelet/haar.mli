(** Orthonormal Haar transform and sparse evaluation of its basis.

    Coefficient layout for a vector of length [N = 2^p]: index 0 holds
    the scaling coefficient ([⟨x, 1/√N⟩]); detail index
    [i = 2^j + k] ([0 ≤ j < p], [0 ≤ k < 2^j]) holds the coefficient of
    the wavelet supported on the block
    [\[k·N/2^j, (k+1)·N/2^j)], positive [+√(2^j/N)] on the first half
    and negative on the second.  The basis is orthonormal, so the
    transform preserves inner products (Parseval) — the property every
    top-B selection argument rests on.

    [psi] and [psi_prefix] evaluate a single basis vector (and its
    prefix integral) in O(1), which makes reconstruction from a sparse
    coefficient set O(#coefficients) per point with no materialized
    basis. *)

val is_pow2 : int -> bool
val next_pow2 : int -> int
(** Smallest power of two [≥ max 1 n]. *)

val transform : float array -> float array
(** Forward transform.  Length must be a power of two. *)

val inverse : float array -> float array
(** Inverse transform (exact up to float rounding). *)

val pad : [ `Zero | `Repeat_last ] -> float array -> float array
(** Extend to the next power of two with zeros or with copies of the
    last value. *)

val psi : n:int -> index:int -> pos:int -> float
(** [ψ_index(pos)] for the length-[n] basis, [n] a power of two,
    [0 ≤ index, pos < n].  O(1). *)

val psi_prefix : n:int -> index:int -> upto:int -> float
(** [Σ_{t=0}^{upto} ψ_index(t)]; [upto = −1] gives [0.].  O(1). *)

val support : n:int -> index:int -> int * int * int * float
(** [(lo, mid, hi, v)] for detail index [1 ≤ index < n]: [ψ_index] is
    [+v] on [\[lo, mid)], [−v] on [\[mid, hi)] and zero elsewhere —
    the geometry {!psi} and {!psi_prefix} evaluate, validated once so
    a caller can evaluate every position of one coefficient without
    re-checking it. *)

val basis : n:int -> index:int -> float array
(** Materialized basis vector (test/debug helper). *)

val reconstruct_point : n:int -> coeffs:(int * float) array -> pos:int -> float
(** Value at [pos] of the vector whose transform is the given sparse
    coefficient set (missing coefficients are zero). *)

val reconstruct : n:int -> coeffs:(int * float) array -> float array
(** Full reconstruction from a sparse set, O(n·#coeffs) via [psi] (tests
    compare it against [inverse] on the dense completion). *)
