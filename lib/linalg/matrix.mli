(** Dense row-major matrices.

    Sized for the small systems this library solves (the [B×B] normal
    equations of histogram re-optimization, [B ≤ a few hundred]); all
    operations are straightforward O(n³)/O(n²) dense code with bounds
    checking at the API boundary. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
(** [init ~rows ~cols f] has entry [(i,j)] equal to [f i j]. *)

val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t

val of_arrays : float array array -> t
(** Rows given as arrays; all rows must have equal, positive length. *)

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on shape mismatch. *)

val mul_vec : t -> float array -> float array
(** Matrix–vector product. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val add_ridge : t -> float -> t
(** [add_ridge m r] is [m + r·I] (fresh); requires a square [m]. *)

val is_symmetric : ?tol:float -> t -> bool
(** Symmetry up to absolute tolerance [tol] (default [1e-9] scaled by the
    largest entry). *)

val frobenius_norm : t -> float
val pp : Format.formatter -> t -> unit
