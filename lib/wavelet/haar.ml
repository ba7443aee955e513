module Checks = Rs_util.Checks

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let check_pow2 ~name n =
  Checks.check (is_pow2 n) (name ^ ": length must be a positive power of two")

let sqrt2 = sqrt 2.

let transform x =
  let len = Array.length x in
  check_pow2 ~name:"Haar.transform" len;
  let out = Array.make len 0. in
  let a = Array.copy x in
  let b = Array.make (len / 2 + 1) 0. in
  let n = ref len in
  while !n > 1 do
    let half = !n / 2 in
    for k = 0 to half - 1 do
      b.(k) <- (a.(2 * k) +. a.((2 * k) + 1)) /. sqrt2;
      out.(half + k) <- (a.(2 * k) -. a.((2 * k) + 1)) /. sqrt2
    done;
    Array.blit b 0 a 0 half;
    n := half
  done;
  out.(0) <- a.(0);
  out

let inverse c =
  let len = Array.length c in
  check_pow2 ~name:"Haar.inverse" len;
  let a = Array.make len 0. in
  let b = Array.make len 0. in
  a.(0) <- c.(0);
  let n = ref 1 in
  while !n < len do
    for k = 0 to !n - 1 do
      let s = a.(k) and d = c.(!n + k) in
      b.(2 * k) <- (s +. d) /. sqrt2;
      b.((2 * k) + 1) <- (s -. d) /. sqrt2
    done;
    Array.blit b 0 a 0 (2 * !n);
    n := 2 * !n
  done;
  a

let pad mode x =
  let len = Array.length x in
  let target = next_pow2 len in
  if target = len then Array.copy x
  else begin
    let fill =
      match mode with
      | `Zero -> 0.
      | `Repeat_last -> if len = 0 then 0. else x.(len - 1)
    in
    Array.init target (fun i -> if i < len then x.(i) else fill)
  end

let floor_log2 i =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 i

(* Support geometry of detail index i = 2^j + k: the block
   [k·n/2^j, (k+1)·n/2^j), positive on its first half. *)
let geometry ~n ~index =
  let j = floor_log2 index in
  let k = index - (1 lsl j) in
  let block = n lsr j in
  let lo = k * block in
  (lo, lo + (block / 2), lo + block, sqrt (float_of_int (1 lsl j) /. float_of_int n))

let check_args ~name ~index_name ~n ~index =
  check_pow2 ~name n;
  ignore (Checks.in_range ~name:index_name ~lo:0 ~hi:(n - 1) index)

let support ~n ~index =
  check_args ~name:"Haar.support" ~index_name:"Haar.support index" ~n ~index;
  if index = 0 then invalid_arg "Haar.support: index 0 is the scaling coefficient"
  else geometry ~n ~index

let psi ~n ~index ~pos =
  check_args ~name:"Haar.psi" ~index_name:"Haar.psi index" ~n ~index;
  ignore (Checks.in_range ~name:"Haar.psi pos" ~lo:0 ~hi:(n - 1) pos);
  if index = 0 then 1. /. sqrt (float_of_int n)
  else begin
    let lo, mid, hi, v = geometry ~n ~index in
    if pos < lo || pos >= hi then 0. else if pos < mid then v else -.v
  end

let psi_prefix ~n ~index ~upto =
  check_args ~name:"Haar.psi_prefix" ~index_name:"Haar.psi_prefix index" ~n ~index;
  ignore (Checks.in_range ~name:"Haar.psi_prefix upto" ~lo:(-1) ~hi:(n - 1) upto);
  if upto < 0 then 0.
  else if index = 0 then float_of_int (upto + 1) /. sqrt (float_of_int n)
  else begin
    let lo, mid, hi, v = geometry ~n ~index in
    if upto < lo || upto >= hi - 1 then 0.
    else if upto < mid then v *. float_of_int (upto - lo + 1)
    else v *. float_of_int (hi - 1 - upto)
  end

let basis ~n ~index = Array.init n (fun pos -> psi ~n ~index ~pos)

let reconstruct_point ~n ~coeffs ~pos =
  Array.fold_left
    (fun acc (index, c) -> acc +. (c *. psi ~n ~index ~pos))
    0. coeffs

let reconstruct ~n ~coeffs =
  Array.init n (fun pos -> reconstruct_point ~n ~coeffs ~pos)
