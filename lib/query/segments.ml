module Checks = Rs_util.Checks
module Prefix = Rs_util.Prefix

type part = { width : int; total : float; est : a:int -> b:int -> float }

(* Offsets o.(i) = Σ_{j<i} width_j, length S+1; global index a lives in
   segment i iff o.(i) < a ≤ o.(i+1). *)
let offsets parts =
  ignore (Checks.non_empty_array ~name:"Segments.parts" parts);
  let s = Array.length parts in
  let o = Array.make (s + 1) 0 in
  for i = 0 to s - 1 do
    ignore (Checks.positive ~name:"Segments.width" parts.(i).width);
    o.(i + 1) <- o.(i) + parts.(i).width
  done;
  o

(* Largest i with o.(i) < a: the segment holding global index a. *)
let locate o a =
  let lo = ref 0 and hi = ref (Array.length o - 1) in
  (* invariant: o.(lo) < a ≤ o.(hi + 1) over segment indices *)
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if o.(mid) < a then lo := mid else hi := mid - 1
  done;
  !lo

let estimator parts =
  let o = offsets parts in
  let s = Array.length parts in
  let n = o.(s) in
  (* Cumulative totals for the exact interior contribution. *)
  let cum = Array.make (s + 1) 0. in
  for i = 0 to s - 1 do
    cum.(i + 1) <- cum.(i) +. parts.(i).total
  done;
  fun ~a ~b ->
    Checks.check
      (1 <= a && a <= b && b <= n)
      "Segments.estimator: query out of domain";
    let i = locate o a and j = locate o b in
    if i = j then parts.(i).est ~a:(a - o.(i)) ~b:(b - o.(i))
    else
      let suffix = parts.(i).est ~a:(a - o.(i)) ~b:parts.(i).width in
      let interior = cum.(j) -. cum.(i + 1) in
      let prefix = parts.(j).est ~a:1 ~b:(b - o.(j)) in
      suffix +. interior +. prefix

let sse p ~parts ~intra =
  let o = offsets parts in
  let s = Array.length parts in
  Checks.check (o.(s) = Prefix.n p)
    "Segments.sse: widths do not cover the prefix table's domain";
  Checks.check
    (Array.length intra = s)
    "Segments.sse: intra must have one entry per segment";
  (* Per-segment boundary-error moments:
       e_suf(a) = est(a, w) − exact suffix sum from local a,
       e_pre(b) = est(1, b) − exact prefix sum to local b. *)
  let ss = Array.make s 0.
  and s1 = Array.make s 0.
  and pp = Array.make s 0.
  and p1 = Array.make s 0. in
  for i = 0 to s - 1 do
    let part = parts.(i) and off = o.(i) in
    let w = part.width in
    let seg_end = Prefix.prefix p (off + w) in
    for la = 1 to w do
      let e = part.est ~a:la ~b:w -. (seg_end -. Prefix.prefix p (off + la - 1)) in
      ss.(i) <- ss.(i) +. (e *. e);
      s1.(i) <- s1.(i) +. e
    done;
    let seg_start = Prefix.prefix p off in
    for lb = 1 to w do
      let e = part.est ~a:1 ~b:lb -. (Prefix.prefix p (off + lb) -. seg_start) in
      pp.(i) <- pp.(i) +. (e *. e);
      p1.(i) <- p1.(i) +. e
    done
  done;
  (* Cross terms Σ_{i<j} (w_j·SS_i + w_i·PP_j + 2·S1_i·P1_j) via one
     backward sweep accumulating the j-side aggregates. *)
  let cross = ref 0. in
  let w_tail = ref 0. and pp_tail = ref 0. and p1_tail = ref 0. in
  for i = s - 1 downto 0 do
    cross :=
      !cross
      +. (ss.(i) *. !w_tail)
      +. (float_of_int parts.(i).width *. !pp_tail)
      +. (2. *. s1.(i) *. !p1_tail);
    w_tail := !w_tail +. float_of_int parts.(i).width;
    pp_tail := !pp_tail +. pp.(i);
    p1_tail := !p1_tail +. p1.(i)
  done;
  Array.fold_left ( +. ) !cross intra
