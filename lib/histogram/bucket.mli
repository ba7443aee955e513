(** Bucketings: partitions of the attribute domain [1..n] into
    contiguous, non-empty buckets.

    A bucketing is stored as the increasing sequence of bucket right
    endpoints (the last one is always [n]): O(B) words, never a copy of
    the domain.  [bucket_of], [left] and [right] binary-search that
    sequence in O(log B); a plan that answers many ranges
    ([Rs_query.Batch.bucketed]) builds its own O(1) position index. *)

type t

val of_rights : n:int -> int array -> t
(** [of_rights ~n rights] builds the bucketing whose [k]'th bucket ends
    at [rights.(k)].  Requires a strictly increasing sequence within
    [1..n] whose last element is [n].  Raises [Invalid_argument]
    otherwise. *)

val single : n:int -> t
(** One bucket covering the whole domain. *)

val singletons : n:int -> t
(** [n] buckets of width 1. *)

val equi_width : n:int -> buckets:int -> t
(** [buckets] buckets of (near-)equal width; [buckets] is clamped to
    [\[1, n\]]. *)

val n : t -> int
val count : t -> int
(** Number of buckets [B]. *)

val bounds : t -> int -> int * int
(** [bounds t k] is the 1-based inclusive range [(l, r)] of bucket [k],
    [0 ≤ k < count t]. *)

val width : t -> int -> int
(** Bucket width [r − l + 1]. *)

val bucket_of : t -> int -> int
(** [bucket_of t i] is the index of the bucket containing position [i],
    [1 ≤ i ≤ n].  O(log B). *)

val left : t -> int -> int
(** [left t i = B^<_i]: leftmost position of the bucket containing
    [i]. *)

val right : t -> int -> int
(** [right t i = B^>_i]: rightmost position of the bucket containing
    [i]. *)

val rights : t -> int array
(** Fresh copy of the right-endpoint sequence. *)

val iter : (int -> l:int -> r:int -> unit) -> t -> unit
(** Iterate buckets in order with their index and bounds. *)

val fold : ('a -> int -> l:int -> r:int -> 'a) -> 'a -> t -> 'a

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val enumerate : n:int -> buckets:int -> t list
(** All bucketings of [1..n] into exactly [buckets] non-empty buckets
    (a [C(n−1, buckets−1)]-sized list) — test/benchmark helper for
    exhaustive optimality checks on small inputs.  Raises
    [Invalid_argument] when the count would exceed 10⁶. *)
