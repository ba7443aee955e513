type f1 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type i1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let f1_create len =
  if len < 0 then invalid_arg "Tab.f1_create: negative length";
  let t : f1 = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  Bigarray.Array1.fill t 0.;
  t

let i1_create len =
  if len < 0 then invalid_arg "Tab.i1_create: negative length";
  let t : i1 = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill t 0;
  t

let f1_len (t : f1) = Bigarray.Array1.dim t
let i1_len (t : i1) = Bigarray.Array1.dim t
let f1_fill (t : f1) v = Bigarray.Array1.fill t v
let i1_fill (t : i1) v = Bigarray.Array1.fill t v

(* The checked accessors ride Bigarray's own bounds checks but raise
   with a Tab-specific message so a kernel index bug is attributable. *)
let f1_get (t : f1) i =
  if i < 0 || i >= Bigarray.Array1.dim t then invalid_arg "Tab.f1_get";
  Bigarray.Array1.unsafe_get t i

let f1_set (t : f1) i v =
  if i < 0 || i >= Bigarray.Array1.dim t then invalid_arg "Tab.f1_set";
  Bigarray.Array1.unsafe_set t i v

let i1_get (t : i1) i =
  if i < 0 || i >= Bigarray.Array1.dim t then invalid_arg "Tab.i1_get";
  Bigarray.Array1.unsafe_get t i

let i1_set (t : i1) i v =
  if i < 0 || i >= Bigarray.Array1.dim t then invalid_arg "Tab.i1_set";
  Bigarray.Array1.unsafe_set t i v

external f1_unsafe_get : f1 -> int -> float = "%caml_ba_unsafe_ref_1"
external f1_unsafe_set : f1 -> int -> float -> unit = "%caml_ba_unsafe_set_1"
external i1_unsafe_get : i1 -> int -> int = "%caml_ba_unsafe_ref_1"
external i1_unsafe_set : i1 -> int -> int -> unit = "%caml_ba_unsafe_set_1"

let f1_blit ~(src : f1) ~(dst : f1) =
  if Bigarray.Array1.dim src <> Bigarray.Array1.dim dst then
    invalid_arg "Tab.f1_blit: length mismatch";
  Bigarray.Array1.blit src dst

let f1_of_array a =
  let t = f1_create (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set t i v) a;
  t

let f1_to_array (t : f1) =
  Array.init (Bigarray.Array1.dim t) (fun i -> Bigarray.Array1.unsafe_get t i)

let i1_of_array a =
  let t = i1_create (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set t i v) a;
  t

let i1_to_array (t : i1) =
  Array.init (Bigarray.Array1.dim t) (fun i -> Bigarray.Array1.unsafe_get t i)

type f2 = { fbuf : f1; f_rows : int; f_cols : int }
type i2 = { ibuf : i1; i_rows : int; i_cols : int }

let f2_create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Tab.f2_create: negative dims";
  { fbuf = f1_create (rows * cols); f_rows = rows; f_cols = cols }

let i2_create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Tab.i2_create: negative dims";
  { ibuf = i1_create (rows * cols); i_rows = rows; i_cols = cols }

let f2_rows t = t.f_rows
let f2_cols t = t.f_cols
let i2_rows t = t.i_rows
let i2_cols t = t.i_cols
let f2_fill t v = f1_fill t.fbuf v
let i2_fill t v = i1_fill t.ibuf v

let f2_get t r c =
  if r < 0 || r >= t.f_rows || c < 0 || c >= t.f_cols then
    invalid_arg "Tab.f2_get";
  Bigarray.Array1.unsafe_get t.fbuf ((r * t.f_cols) + c)

let f2_set t r c v =
  if r < 0 || r >= t.f_rows || c < 0 || c >= t.f_cols then
    invalid_arg "Tab.f2_set";
  Bigarray.Array1.unsafe_set t.fbuf ((r * t.f_cols) + c) v

let i2_get t r c =
  if r < 0 || r >= t.i_rows || c < 0 || c >= t.i_cols then
    invalid_arg "Tab.i2_get";
  Bigarray.Array1.unsafe_get t.ibuf ((r * t.i_cols) + c)

let i2_set t r c v =
  if r < 0 || r >= t.i_rows || c < 0 || c >= t.i_cols then
    invalid_arg "Tab.i2_set";
  Bigarray.Array1.unsafe_set t.ibuf ((r * t.i_cols) + c) v

let f2_unsafe_get t r c = Bigarray.Array1.unsafe_get t.fbuf ((r * t.f_cols) + c)

let f2_unsafe_set t r c v =
  Bigarray.Array1.unsafe_set t.fbuf ((r * t.f_cols) + c) v

let i2_unsafe_get t r c = Bigarray.Array1.unsafe_get t.ibuf ((r * t.i_cols) + c)

let i2_unsafe_set t r c v =
  Bigarray.Array1.unsafe_set t.ibuf ((r * t.i_cols) + c) v

module Debug = struct
  let f1_unsafe_get = f1_get
  let f1_unsafe_set = f1_set
  let i1_unsafe_get = i1_get
  let i1_unsafe_set = i1_set
  let f2_unsafe_get = f2_get
  let f2_unsafe_set = f2_set
  let i2_unsafe_get = i2_get
  let i2_unsafe_set = i2_set
end
