module Checks = Rs_util.Checks
module Tab = Rs_util.Tab

type ends =
  | Avg_ends
  | Const_ends of { suff : Tab.f1; pref : Tab.f1 }
  | Affine_ends of {
      suff_slope : Tab.f1;
      suff_intercept : Tab.f1;
      pref_slope : Tab.f1;
      pref_intercept : Tab.f1;
    }

type t =
  | Two_sided of { n : int; right : Tab.f1; left : Tab.f1 }
  | Bucketed of {
      n : int;
      rounded : bool;
      index : Tab.i1; (* index.(i-1) = bucket of position i, 0-based *)
      br : Tab.i1; (* per-bucket right endpoint (1-based position) *)
      bl : Tab.i1; (* per-bucket left endpoint *)
      avg : Tab.f1; (* per-bucket intra value *)
      cum : Tab.f1; (* cum.(k) = Σ_{k'<k} width·avg, length buckets+1 *)
      ends : ends;
    }

type ends_spec =
  | Avg
  | Const of { suff : float array; pref : float array }
  | Affine of {
      suff_slope : float array;
      suff_intercept : float array;
      pref_slope : float array;
      pref_intercept : float array;
    }

let n = function Two_sided { n; _ } -> n | Bucketed { n; _ } -> n

let two_sided ~n ~right ~left =
  ignore (Checks.positive ~name:"Batch.two_sided n" n);
  Checks.check
    (Array.length right = n + 1)
    "Batch.two_sided: right endpoint vector must have length n+1";
  let right_tab = Tab.f1_of_array right in
  let left_tab =
    match left with
    | None -> right_tab
    | Some l ->
        Checks.check
          (Array.length l = n + 1)
          "Batch.two_sided: left endpoint vector must have length n+1";
        Tab.f1_of_array l
  in
  Two_sided { n; right = right_tab; left = left_tab }

let bucketed ~n ~rounded ~bucket_lo ~bucket_hi ~avg ~cum ends =
  ignore (Checks.positive ~name:"Batch.bucketed n" n);
  let b = Array.length avg in
  ignore (Checks.positive ~name:"Batch.bucketed buckets" b);
  Checks.check
    (Array.length bucket_lo = b && Array.length bucket_hi = b)
    "Batch.bucketed: bucket bound arrays must have one entry per bucket";
  Checks.check
    (Array.length cum = b + 1)
    "Batch.bucketed: cum must have length buckets+1";
  (* The position index, written bucket by bucket straight into its
     table; the bounds must tile [1..n] for every cell to be written. *)
  let index = Tab.i1_create n in
  for k = 0 to b - 1 do
    let lo = bucket_lo.(k) and hi = bucket_hi.(k) in
    Checks.check
      (lo = (if k = 0 then 1 else bucket_hi.(k - 1) + 1) && lo <= hi && hi <= n)
      "Batch.bucketed: bucket bounds must tile 1..n in order";
    for i = lo - 1 to hi - 1 do
      index.{i} <- k
    done
  done;
  Checks.check (bucket_hi.(b - 1) = n) "Batch.bucketed: bucket bounds must tile 1..n in order";
  let check_side what arr =
    Checks.check (Array.length arr = b)
      (what ^ " must have one entry per bucket")
  in
  let ends =
    match ends with
    | Avg -> Avg_ends
    | Const { suff; pref } ->
        check_side "Batch.bucketed: suffix array" suff;
        check_side "Batch.bucketed: prefix array" pref;
        Const_ends { suff = Tab.f1_of_array suff; pref = Tab.f1_of_array pref }
    | Affine { suff_slope; suff_intercept; pref_slope; pref_intercept } ->
        check_side "Batch.bucketed: suffix slopes" suff_slope;
        check_side "Batch.bucketed: suffix intercepts" suff_intercept;
        check_side "Batch.bucketed: prefix slopes" pref_slope;
        check_side "Batch.bucketed: prefix intercepts" pref_intercept;
        Affine_ends
          {
            suff_slope = Tab.f1_of_array suff_slope;
            suff_intercept = Tab.f1_of_array suff_intercept;
            pref_slope = Tab.f1_of_array pref_slope;
            pref_intercept = Tab.f1_of_array pref_intercept;
          }
  in
  Bucketed
    {
      n;
      rounded;
      index;
      bl = Tab.i1_of_array bucket_lo;
      br = Tab.i1_of_array bucket_hi;
      avg = Tab.f1_of_array avg;
      cum = Tab.f1_of_array cum;
      ends;
    }

let bad_range ~what a b =
  invalid_arg (Printf.sprintf "%s: range (%d, %d) out of domain" what a b)

let check_span ~what ranges ~lo ~hi ~out =
  let len = Array.length ranges in
  if lo < 0 || hi >= len || Array.length out < len then
    invalid_arg (what ^ ": span out of bounds")

(* Each representation gets its own monomorphic loop so the Tab loads
   stay unboxed and the endpoint dispatch is hoisted out of the
   per-range work.  The arithmetic — operand order included — restates
   Histogram.estimate / Wavelet.Synopsis.estimate exactly: exact
   answers are contractually bit-identical to the per-range path
   (the serving determinism tests compare response bytes). *)

let eval_two_sided ~n ~right ~left ranges lo hi out =
  for i = lo to hi do
    let a, b = Array.unsafe_get ranges i in
    if a < 1 || b < a || b > n then bad_range ~what:"Batch.eval" a b;
    Array.unsafe_set out i
      (Tab.f1_unsafe_get right b -. Tab.f1_unsafe_get left (a - 1))
  done

let eval_avg ~n ~rounded ~index ~bl ~br ~avg ~cum ranges lo hi out =
  for i = lo to hi do
    let a, b = Array.unsafe_get ranges i in
    if a < 1 || b < a || b > n then bad_range ~what:"Batch.eval" a b;
    let ka = Tab.i1_unsafe_get index (a - 1) in
    let kb = Tab.i1_unsafe_get index (b - 1) in
    let raw =
      if ka = kb then float_of_int (b - a + 1) *. Tab.f1_unsafe_get avg ka
      else
        let middle = Tab.f1_unsafe_get cum kb -. Tab.f1_unsafe_get cum (ka + 1) in
        let r_a = Tab.i1_unsafe_get br ka in
        let left = float_of_int (r_a - a + 1) *. Tab.f1_unsafe_get avg ka in
        let l_b = Tab.i1_unsafe_get bl kb in
        let right = float_of_int (b - l_b + 1) *. Tab.f1_unsafe_get avg kb in
        left +. middle +. right
    in
    Array.unsafe_set out i (if rounded then Float.round raw else raw)
  done

let eval_const ~n ~rounded ~index ~avg ~cum ~suff ~pref ranges lo hi out =
  for i = lo to hi do
    let a, b = Array.unsafe_get ranges i in
    if a < 1 || b < a || b > n then bad_range ~what:"Batch.eval" a b;
    let ka = Tab.i1_unsafe_get index (a - 1) in
    let kb = Tab.i1_unsafe_get index (b - 1) in
    let raw =
      if ka = kb then float_of_int (b - a + 1) *. Tab.f1_unsafe_get avg ka
      else
        let middle = Tab.f1_unsafe_get cum kb -. Tab.f1_unsafe_get cum (ka + 1) in
        let left = Tab.f1_unsafe_get suff ka in
        let right = Tab.f1_unsafe_get pref kb in
        left +. middle +. right
    in
    Array.unsafe_set out i (if rounded then Float.round raw else raw)
  done

let eval_affine ~n ~rounded ~index ~avg ~cum ~ss ~sc ~ps ~pc ranges lo hi out =
  for i = lo to hi do
    let a, b = Array.unsafe_get ranges i in
    if a < 1 || b < a || b > n then bad_range ~what:"Batch.eval" a b;
    let ka = Tab.i1_unsafe_get index (a - 1) in
    let kb = Tab.i1_unsafe_get index (b - 1) in
    let raw =
      if ka = kb then float_of_int (b - a + 1) *. Tab.f1_unsafe_get avg ka
      else
        let middle = Tab.f1_unsafe_get cum kb -. Tab.f1_unsafe_get cum (ka + 1) in
        (* Regression.predict f x = (f.slope *. x) +. f.intercept *)
        let left =
          (Tab.f1_unsafe_get ss ka *. float_of_int a) +. Tab.f1_unsafe_get sc ka
        in
        let right =
          (Tab.f1_unsafe_get ps kb *. float_of_int b) +. Tab.f1_unsafe_get pc kb
        in
        left +. middle +. right
    in
    Array.unsafe_set out i (if rounded then Float.round raw else raw)
  done

let eval t ~ranges ~lo ~hi ~out =
  check_span ~what:"Batch.eval" ranges ~lo ~hi ~out;
  if hi >= lo then
    match t with
    | Two_sided { n; right; left } -> eval_two_sided ~n ~right ~left ranges lo hi out
    | Bucketed { n; rounded; index; bl; br; avg; cum; ends } -> (
        match ends with
        | Avg_ends -> eval_avg ~n ~rounded ~index ~bl ~br ~avg ~cum ranges lo hi out
        | Const_ends { suff; pref } ->
            eval_const ~n ~rounded ~index ~avg ~cum ~suff ~pref ranges lo hi out
        | Affine_ends { suff_slope; suff_intercept; pref_slope; pref_intercept }
          ->
            eval_affine ~n ~rounded ~index ~avg ~cum ~ss:suff_slope
              ~sc:suff_intercept ~ps:pref_slope ~pc:pref_intercept ranges lo hi
              out)
