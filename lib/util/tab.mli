(** Flat unboxed tables for the DP kernels.

    [Bigarray.Array1] storage — float64 and native-int — with 2-D
    row-major views on top.  Reads and writes in monomorphic code
    compile to direct unboxed loads/stores (no per-element boxing, no
    row-pointer indirection), which is what the OPT-A and level-DP
    inner loops need: OCaml's [float array array] boxes nothing per
    element either, but costs a row load per access and keeps the
    matrices on the GC heap; a Tab is one flat malloc'd block the minor
    GC never scans.

    Accessor discipline: the checked {!get}/{!set} family raises
    [Invalid_argument] on out-of-range indices and is what tests and
    cold paths use; the [unsafe_*] family compiles to raw loads and is
    reserved for kernel loops whose index arithmetic is pinned by a
    bounds-checked debug twin (see {!Debug}) — every kernel using
    [unsafe_*] must have a test that runs the same loop through
    {!Debug} accessors on representative shapes, so index bugs surface
    as [Invalid_argument] in the suite rather than as silent reads. *)

type f1 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type i1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val f1_create : int -> f1
(** [f1_create len]: a float table of [len] cells, zero-filled.
    Raises [Invalid_argument] on negative length. *)

val i1_create : int -> i1
(** Like {!f1_create} for native ints. *)

val f1_len : f1 -> int
val i1_len : i1 -> int

val f1_fill : f1 -> float -> unit
val i1_fill : i1 -> int -> unit

val f1_get : f1 -> int -> float
(** Bounds-checked load ([Invalid_argument] out of range). *)

val f1_set : f1 -> int -> float -> unit
val i1_get : i1 -> int -> int
val i1_set : i1 -> int -> int -> unit

external f1_unsafe_get : f1 -> int -> float = "%caml_ba_unsafe_ref_1"
(** Raw load — no bounds check.  Kernel loops only; see the accessor
    discipline above.  Declared [external] so call sites compile to a
    direct unboxed load — a [val] wrapper would be a cross-module call
    that boxes the float on every access (the non-flambda boxing tax
    this module exists to remove). *)

external f1_unsafe_set : f1 -> int -> float -> unit = "%caml_ba_unsafe_set_1"
external i1_unsafe_get : i1 -> int -> int = "%caml_ba_unsafe_ref_1"
external i1_unsafe_set : i1 -> int -> int -> unit = "%caml_ba_unsafe_set_1"

val f1_blit : src:f1 -> dst:f1 -> unit
(** Copy [src] into [dst] (equal lengths; [Invalid_argument]
    otherwise). *)

val f1_of_array : float array -> f1
val f1_to_array : f1 -> float array
val i1_of_array : int array -> i1
val i1_to_array : i1 -> int array

(** {2 Row-major 2-D views}

    A 2-D table is a 1-D buffer plus a pinned [(rows, cols)] shape;
    cell [(r, c)] lives at [r * cols + c].  Kernels that sweep a row
    hoist [r * cols] once and walk the flat buffer — the layout is part
    of the contract. *)

type f2 = private { fbuf : f1; f_rows : int; f_cols : int }
type i2 = private { ibuf : i1; i_rows : int; i_cols : int }

val f2_create : rows:int -> cols:int -> f2
(** Zero-filled [rows × cols] float matrix.  [Invalid_argument] on
    negative dims. *)

val i2_create : rows:int -> cols:int -> i2
val f2_rows : f2 -> int
val f2_cols : f2 -> int
val i2_rows : i2 -> int
val i2_cols : i2 -> int
val f2_fill : f2 -> float -> unit
val i2_fill : i2 -> int -> unit

val f2_get : f2 -> int -> int -> float
(** [f2_get t r c], bounds-checked on both axes. *)

val f2_set : f2 -> int -> int -> float -> unit
val i2_get : i2 -> int -> int -> int
val i2_set : i2 -> int -> int -> int -> unit

val f2_unsafe_get : f2 -> int -> int -> float
val f2_unsafe_set : f2 -> int -> int -> float -> unit
val i2_unsafe_get : i2 -> int -> int -> int
val i2_unsafe_set : i2 -> int -> int -> int -> unit

(** {2 Debug twins}

    Same signatures as the [unsafe_*] family, but bounds-checked —
    tests re-run kernel index arithmetic through these so an
    out-of-range access raises instead of reading garbage. *)
module Debug : sig
  val f1_unsafe_get : f1 -> int -> float
  val f1_unsafe_set : f1 -> int -> float -> unit
  val i1_unsafe_get : i1 -> int -> int
  val i1_unsafe_set : i1 -> int -> int -> unit
  val f2_unsafe_get : f2 -> int -> int -> float
  val f2_unsafe_set : f2 -> int -> int -> float -> unit
  val i2_unsafe_get : i2 -> int -> int -> int
  val i2_unsafe_set : i2 -> int -> int -> int -> unit
end
