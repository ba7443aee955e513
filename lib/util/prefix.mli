(** Prefix sums and range moments of an attribute-value distribution.

    Throughout the library the data is an array [A[1..n]] of attribute
    frequencies (1-based, following the paper).  This module stores the
    prefix sums [P[t] = Σ_{i≤t} A[i]] (with [P[0] = 0]) together with
    cumulative moment tables that let every per-bucket quantity used by
    the histogram dynamic programs be evaluated in O(1):

    - [Σ P[t]], [Σ P[t]²], [Σ t·P[t]] over any prefix-index range
      [u..v ⊆ 0..n];
    - [Σ A[i]], [Σ A[i]²] over any data-index range [a..b ⊆ 1..n];
    - closed forms for [Σ t] and [Σ t²].

    The range sum of a query [(a, b)] is [s[a,b] = P[b] − P[a−1]]. *)

type t

val create : float array -> t
(** [create a] builds the tables for the data [A[i] = a.(i−1)],
    [i = 1..n] where [n = Array.length a].  Raises [Invalid_argument] if
    [a] is empty or contains non-finite values. *)

val of_owned : float array -> t
(** [create] without the defensive copy: the result keeps [a] itself
    as its data, so the caller must not write to [a] afterwards.  For
    loaders that already hold a private array ({!Rs_core.Dataset}).
    Same checks and messages as [create]. *)

val of_ints : int array -> t
(** [of_ints a] is [create] on the float image of [a]. *)

val n : t -> int
(** Domain size. *)

val value : t -> int -> float
(** [value t i] is [A[i]], [1 ≤ i ≤ n]. *)

val data : t -> float array
(** A fresh copy of [A[1..n]] (0-indexed). *)

val prefix : t -> int -> float
(** [prefix t k] is [P[k]], [0 ≤ k ≤ n]. *)

val prefix_vector : t -> float array
(** The vector [P[0..n]] (length [n+1]), freshly allocated. *)

(** {1 Raw moment tables}

    Handles on the flat unboxed {!Tab} buffers behind this module, for
    kernel loops that cache them once and read with the [Tab] raw
    accessors instead of paying a boxing cross-module call per moment
    ({!Rs_histogram.Cost} is the consumer).  The tables are live, not
    copies — callers must treat them as read-only. *)

val table : t -> Tab.f1
(** [P[0..n]] itself: cell [t] holds [P[t]], length [n+1]. *)

val moment_p : t -> Cum.t
(** The cumulative table behind {!sum_p} (see {!Cum.table}). *)

val moment_p2 : t -> Cum.t
(** Behind {!sum_p2}. *)

val moment_tp : t -> Cum.t
(** Behind {!sum_tp}. *)

val moment_a2 : t -> Cum.t
(** Behind {!sum_a2} — note its data-index convention ([x(i) = A[i+1]²],
    so [Σ_{i=a}^{b} A[i]²] reads the cumulative cells [b] and [a−1]). *)

val range_sum : t -> a:int -> b:int -> float
(** [range_sum t ~a ~b] is [s[a,b] = Σ_{a≤i≤b} A[i]], [1 ≤ a ≤ b ≤ n]. *)

val total : t -> float
(** [total t = s[1,n]]. *)

val mean : t -> a:int -> b:int -> float
(** Average of [A[a..b]]. *)

(** {1 Prefix-index moments}

    All take prefix indices [0 ≤ u], [v ≤ n] and return [0.] when
    [u > v]. *)

val sum_p : t -> u:int -> v:int -> float
(** [Σ_{t=u}^{v} P[t]]. *)

val sum_p2 : t -> u:int -> v:int -> float
(** [Σ_{t=u}^{v} P[t]²]. *)

val sum_tp : t -> u:int -> v:int -> float
(** [Σ_{t=u}^{v} t·P[t]]. *)

val sum_t : u:int -> v:int -> float
(** [Σ_{t=u}^{v} t] (closed form; no table needed). *)

val sum_t2 : u:int -> v:int -> float
(** [Σ_{t=u}^{v} t²] (closed form). *)

(** {1 Data-index moments}

    Take data indices [1 ≤ a], [b ≤ n]; return [0.] when [a > b]. *)

val sum_a : t -> a:int -> b:int -> float
(** Same as [range_sum] but tolerant of empty ranges. *)

val sum_a2 : t -> a:int -> b:int -> float
(** [Σ_{i=a}^{b} A[i]²]. *)

(** {1 Incremental maintenance}

    A growable twin of {!t} for streaming ingestion: appends extend
    the data in O(1) amortized, point-deltas replay only the suffix of
    the prefix/moment tables they actually change (O(n − i) for a
    delta at index [i]), and {!Inc.freeze} yields a {!t} that is
    {b bit-identical} to {!create} over the current data — the
    streaming rebuild determinism contract rides on this (pinned by
    the [@stream] twins, ≥500 random delta sequences, [%h]-exact). *)
module Inc : sig
  type frozen := t
  type t

  val create : unit -> t
  (** An empty incremental prefix (no data yet). *)

  val of_array : float array -> t
  (** Seed from existing data (appends each value).  Raises
      [Invalid_argument] on an empty array or non-finite values. *)

  val n : t -> int
  (** Current domain size. *)

  val append : t -> float -> unit
  (** Extend the domain by one value: [A[n+1] ← v].  O(1) amortized.
      Raises [Invalid_argument] on a non-finite value. *)

  val add : t -> i:int -> delta:float -> unit
  (** Point-delta: [A[i] ← A[i] + delta], [1 ≤ i ≤ n].  Replays the
      plain prefix fold and the four Kahan moment folds over the
      changed suffix only — O(n − i), bit-identical to a rebuild.
      Raises [Invalid_argument] when [i] is out of range or the delta
      or resulting value is non-finite. *)

  val value : t -> int -> float
  (** [value t i] is the current [A[i]], [1 ≤ i ≤ n]. *)

  val data : t -> float array
  (** A fresh copy of the current [A[1..n]] (0-indexed). *)

  val prefix : t -> int -> float
  (** Current [P[k]], [0 ≤ k ≤ n]. *)

  val range_sum : t -> a:int -> b:int -> float
  (** Current [s[a,b]], [1 ≤ a ≤ b ≤ n]. *)

  val total : t -> float
  (** Current [s[1,n]]. *)

  val freeze : t -> frozen
  (** A frozen {!type:t} over the current data — bit-identical to
      {!create} on {!data}.  Raises [Invalid_argument] when empty. *)
end
