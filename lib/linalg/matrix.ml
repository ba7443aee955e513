module Checks = Rs_util.Checks

type t = { rows : int; cols : int; m : float array (* row-major *) }

let create ~rows ~cols =
  let rows = Checks.positive ~name:"Matrix.create rows" rows in
  let cols = Checks.positive ~name:"Matrix.create cols" cols in
  { rows; cols; m = Array.make (rows * cols) 0. }

let init ~rows ~cols f =
  let t = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      t.m.((i * cols) + j) <- f i j
    done
  done;
  t

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1. else 0.)
let rows t = t.rows
let cols t = t.cols

let get t i j =
  let i = Checks.in_range ~name:"Matrix.get row" ~lo:0 ~hi:(t.rows - 1) i in
  let j = Checks.in_range ~name:"Matrix.get col" ~lo:0 ~hi:(t.cols - 1) j in
  t.m.((i * t.cols) + j)

let set t i j v =
  let i = Checks.in_range ~name:"Matrix.set row" ~lo:0 ~hi:(t.rows - 1) i in
  let j = Checks.in_range ~name:"Matrix.set col" ~lo:0 ~hi:(t.cols - 1) j in
  t.m.((i * t.cols) + j) <- v

let copy t = { t with m = Array.copy t.m }

let of_arrays a =
  let a = Checks.non_empty_array ~name:"Matrix.of_arrays" a in
  let cols = Array.length a.(0) in
  ignore (Checks.positive ~name:"Matrix.of_arrays cols" cols);
  Array.iter
    (fun row ->
      Checks.check (Array.length row = cols) "Matrix.of_arrays: ragged rows")
    a;
  init ~rows:(Array.length a) ~cols (fun i j -> a.(i).(j))

let transpose t = init ~rows:t.cols ~cols:t.rows (fun i j -> t.m.((j * t.cols) + i))

let mul a b =
  Checks.check (a.cols = b.rows) "Matrix.mul: shape mismatch";
  let c = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.m.((i * a.cols) + k) in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          c.m.((i * c.cols) + j) <-
            c.m.((i * c.cols) + j) +. (aik *. b.m.((k * b.cols) + j))
        done
    done
  done;
  c

let mul_vec t x =
  Checks.check (t.cols = Array.length x) "Matrix.mul_vec: shape mismatch";
  Array.init t.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to t.cols - 1 do
        acc := !acc +. (t.m.((i * t.cols) + j) *. x.(j))
      done;
      !acc)

let map2 name f a b =
  Checks.check (a.rows = b.rows && a.cols = b.cols) (name ^ ": shape mismatch");
  { a with m = Array.init (Array.length a.m) (fun i -> f a.m.(i) b.m.(i)) }

let add a b = map2 "Matrix.add" ( +. ) a b
let sub a b = map2 "Matrix.sub" ( -. ) a b
let scale c t = { t with m = Array.map (fun v -> c *. v) t.m }

let add_ridge t r =
  Checks.check (t.rows = t.cols) "Matrix.add_ridge: square matrix required";
  let u = copy t in
  for i = 0 to t.rows - 1 do
    u.m.((i * t.cols) + i) <- u.m.((i * t.cols) + i) +. r
  done;
  u

let max_abs t = Array.fold_left (fun m v -> Float.max m (abs_float v)) 0. t.m

let is_symmetric ?tol t =
  t.rows = t.cols
  &&
  let tol =
    match tol with Some v -> v | None -> 1e-9 *. Float.max 1. (max_abs t)
  in
  let ok = ref true in
  for i = 0 to t.rows - 1 do
    for j = i + 1 to t.cols - 1 do
      if abs_float (t.m.((i * t.cols) + j) -. t.m.((j * t.cols) + i)) > tol then
        ok := false
    done
  done;
  !ok

let frobenius_norm t =
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0. t.m)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  for i = 0 to t.rows - 1 do
    Format.fprintf fmt "@[<h>";
    for j = 0 to t.cols - 1 do
      Format.fprintf fmt "%12.5g " t.m.((i * t.cols) + j)
    done;
    Format.fprintf fmt "@]@,"
  done;
  Format.fprintf fmt "@]"
