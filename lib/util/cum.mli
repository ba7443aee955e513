(** Cumulative-sum tables over a fixed sequence of floats.

    A table built from values [x(0), ..., x(m-1)] answers range sums
    [Σ_{i=u}^{v} x(i)] in O(1).  Construction uses Kahan compensated
    summation so the cumulative array stays accurate even for long
    sequences of mixed-magnitude values. *)

type t

val of_array : float array -> t
(** [of_array x] builds a table over the values of [x].  The array may be
    empty.  Raises [Invalid_argument] if any value is not finite. *)

val of_fun : m:int -> (int -> float) -> t
(** [of_fun ~m f] builds a table over [f 0, ..., f (m-1)].
    Raises [Invalid_argument] if [m < 0] or any value is not finite. *)

val of_table : Tab.f1 -> t
(** [of_table c] wraps a cumulative table the caller has filled
    itself — the {!table} layout, [c.(0) = 0.] and
    [c.(i) = Σ_{j<i} x(j)] — without copying it.  For closure-free
    builders ({!Prefix.create}) that run the [of_fun] fold inline; the
    table must not be written afterwards. *)

val length : t -> int
(** Number of values in the table. *)

val table : t -> Tab.f1
(** The raw cumulative table: [length + 1] cells with
    [c.(i) = Σ_{j<i} x(j)], so [Σ_{i=u}^{v} x(i) = c.(v+1) −. c.(u)].
    For kernel loops that cache the handle once and read with the
    {!Tab} raw accessors — {!range} performs the same reads behind a
    bounds-checked, boxing cross-module call. *)

val range : t -> u:int -> v:int -> float
(** [range t ~u ~v] is [Σ_{i=u}^{v} x(i)].  Returns [0.] when [u > v].
    Raises [Invalid_argument] when indices fall outside [0, length-1]
    (except for the empty-range case, which only requires [u > v]). *)

val total : t -> float
(** Sum of all values. *)

(** Incremental cumulative tables: a growable twin of {!t} that keeps
    the Kahan fold state ({e sum and compensation}) at every index, so
    values can be appended — and a changed suffix refolded — in time
    proportional to the cells that actually change, while staying
    {b bit-identical} to a from-scratch {!of_fun} over the current
    values.  This is what makes streaming moment maintenance exact:
    [freeze] after any append/refold history equals the batch build to
    the last bit (pinned by the [@stream] twins). *)
module Inc : sig
  type cum := t
  type t

  val create : unit -> t
  (** An empty incremental table (zero values). *)

  val length : t -> int
  (** Number of values folded so far. *)

  val append : t -> float -> unit
  (** Fold one more value onto the end — one Kahan step, O(1)
      amortized.  Raises [Invalid_argument] on a non-finite value. *)

  val refold : t -> from:int -> (int -> float) -> unit
  (** [refold t ~from f] re-runs the fold for value indices
      [from .. length t - 1] with the current values [f i], starting
      from the stored fold state at [from].  Because values below
      [from] are untouched, the resulting cells are exactly what a
      fresh build over all current values would produce.  O(length −
      from).  Raises [Invalid_argument] if [from] is outside
      [0, length] or any value is non-finite. *)

  val cell : t -> int -> float
  (** [cell t i] is [Σ_{j<i} x(j)], [0 ≤ i ≤ length]. *)

  val range : t -> u:int -> v:int -> float
  (** As {!val:range} on the frozen table. *)

  val freeze : t -> cum
  (** A frozen {!type:t} over the current values — bit-identical to
      [of_fun] on them. *)
end
