module Prefix = Rs_util.Prefix
module Checks = Rs_util.Checks

type estimator = a:int -> b:int -> float

let sse_all_ranges p estimate =
  let n = Prefix.n p in
  let acc = ref 0. in
  for a = 1 to n do
    let pa = Prefix.prefix p (a - 1) in
    for b = a to n do
      let truth = Prefix.prefix p b -. pa in
      let d = truth -. estimate ~a ~b in
      acc := !acc +. (d *. d)
    done
  done;
  !acc

let sse_prefix_form p d_hat =
  let n = Prefix.n p in
  Checks.check
    (Array.length d_hat = n + 1)
    "Error.sse_prefix_form: approximate prefix vector must have length n+1";
  let sum = ref 0. and sum2 = ref 0. in
  for t = 0 to n do
    let d = Prefix.prefix p t -. d_hat.(t) in
    sum := !sum +. d;
    sum2 := !sum2 +. (d *. d)
  done;
  (float_of_int (n + 1) *. !sum2) -. (!sum *. !sum)

(* Σ_{u<v} (d_v − e_u)² with d_v = P[v] − right[v] (v = 1..n) and
   e_u = P[u] − left[u] (u = 0..n−1), by one backward sweep keeping the
   suffix sums Σ d_v and Σ d_v² over v > u.  With right = left this
   telescopes to the same value as [sse_prefix_form]. *)
let sse_two_sided_form p ~right ~left =
  let n = Prefix.n p in
  Checks.check
    (Array.length right = n + 1 && Array.length left = n + 1)
    "Error.sse_two_sided_form: endpoint vectors must have length n+1";
  let acc = ref 0. and s1 = ref 0. and s2 = ref 0. in
  for u = n - 1 downto 0 do
    let v = u + 1 in
    let d = Prefix.prefix p v -. right.(v) in
    s1 := !s1 +. d;
    s2 := !s2 +. (d *. d);
    let e = Prefix.prefix p u -. left.(u) in
    acc :=
      !acc +. (!s2 -. (2. *. e *. !s1) +. (float_of_int (n - u) *. e *. e))
  done;
  !acc

(* Piecewise lowering: inter-bucket queries follow the two-sided form
   [ŝ = right[b] − left[a−1]]; queries inside a bucket window [(l,r)]
   are answered as [(b−a+1)·value] instead.  So
   SSE = cross_all − Σ_buckets cross_same + Σ_buckets intra,
   where cross_same re-evaluates the two-sided error on the
   same-bucket pairs and intra uses the pair identity over
   [g_t = P[t] − t·value]:  Σ_{u<v∈[l−1,r]} (g_v − g_u)²
   = (m+1)·Σg² − (Σg)².  All three pieces are linear sweeps. *)
let sse_piecewise_form p ~right ~left ~buckets =
  let n = Prefix.n p in
  Checks.check
    (Array.length right = n + 1 && Array.length left = n + 1)
    "Error.sse_piecewise_form: endpoint vectors must have length n+1";
  let cross_all = sse_two_sided_form p ~right ~left in
  let adjust = ref 0. in
  Array.iter
    (fun (l, r, value) ->
      Checks.check
        (1 <= l && l <= r && r <= n)
        "Error.sse_piecewise_form: bucket window out of range";
      let same = ref 0. and s1 = ref 0. and s2 = ref 0. in
      for u = r - 1 downto l - 1 do
        let v = u + 1 in
        let d = Prefix.prefix p v -. right.(v) in
        s1 := !s1 +. d;
        s2 := !s2 +. (d *. d);
        let e = Prefix.prefix p u -. left.(u) in
        same :=
          !same +. (!s2 -. (2. *. e *. !s1) +. (float_of_int (r - u) *. e *. e))
      done;
      let m = float_of_int (r - l + 1) in
      let sg = ref 0. and sg2 = ref 0. in
      for t = l - 1 to r do
        let gv = Prefix.prefix p t -. (value *. float_of_int t) in
        sg := !sg +. gv;
        sg2 := !sg2 +. (gv *. gv)
      done;
      let intra = ((m +. 1.) *. !sg2) -. (!sg *. !sg) in
      adjust := !adjust +. intra -. !same)
    buckets;
  cross_all +. !adjust

let sse_of_workload p (w : Workload.t) estimate =
  Checks.check
    (Workload.size w = 0 || w.Workload.n = Prefix.n p)
    "Error.sse_of_workload: workload domain mismatch";
  Array.fold_left
    (fun acc { Workload.a; b; weight } ->
      let d = Prefix.range_sum p ~a ~b -. estimate ~a ~b in
      acc +. (weight *. d *. d))
    0. w.Workload.queries

type metrics = {
  sse : float;
  rmse : float;
  max_abs : float;
  mean_abs : float;
  mean_rel : float;
}

let metrics_fold fold count =
  let sse = ref 0.
  and max_abs = ref 0.
  and sum_abs = ref 0.
  and sum_rel = ref 0. in
  fold (fun ~truth ~est ~weight ->
      let d = truth -. est in
      let ad = abs_float d in
      sse := !sse +. (weight *. d *. d);
      max_abs := Float.max !max_abs ad;
      sum_abs := !sum_abs +. (weight *. ad);
      sum_rel := !sum_rel +. (weight *. ad /. Float.max (abs_float truth) 1.));
  let c = Float.max count 1. in
  {
    sse = !sse;
    rmse = sqrt (!sse /. c);
    max_abs = !max_abs;
    mean_abs = !sum_abs /. c;
    mean_rel = !sum_rel /. c;
  }

let metrics_all_ranges p estimate =
  let n = Prefix.n p in
  let fold visit =
    for a = 1 to n do
      let pa = Prefix.prefix p (a - 1) in
      for b = a to n do
        visit ~truth:(Prefix.prefix p b -. pa) ~est:(estimate ~a ~b) ~weight:1.
      done
    done
  in
  metrics_fold fold (float_of_int (n * (n + 1) / 2))

let naive_estimator p =
  let avg = Prefix.total p /. float_of_int (Prefix.n p) in
  fun ~a ~b -> float_of_int (b - a + 1) *. avg
