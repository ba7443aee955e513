(* Metamorphic properties: transformations of the data with known,
   provable effects on the optima.  These catch whole classes of
   implementation errors that pointwise unit tests miss. *)

module H = Rs_histogram
module Opt_a = H.Opt_a
module Prefix = Rs_util.Prefix
module Rng = Rs_dist.Rng
module W = Rs_wavelet.Synopsis

let opt_sse p ~buckets = (Opt_a.build_exact p ~buckets).Opt_a.sse

let wave_sse p data ~b =
  Rs_query.Error.sse_prefix_form p (W.prefix_hat (W.range_optimal data ~b))

(* Scaling the data by c scales every error linearly, hence every
   optimal SSE by c². *)
let test_scaling_quadratic () =
  let rng = Rng.create 1 in
  for _ = 1 to 8 do
    let n = 4 + Rng.int rng 12 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let scaled = Array.map (fun v -> 3. *. v) data in
    let p = Helpers.prefix_of data and ps = Helpers.prefix_of scaled in
    let b = 1 + Rng.int rng 3 in
    Helpers.check_close ~tol:1e-6 "opt-a scales"
      (9. *. opt_sse p ~buckets:b)
      (opt_sse ps ~buckets:b);
    let _, sap0 = H.Sap0.build_with_cost p ~buckets:b in
    let _, sap0s = H.Sap0.build_with_cost ps ~buckets:b in
    Helpers.check_close ~tol:1e-6 "sap0 scales" (9. *. sap0) sap0s;
    let _, sap1 = H.Sap1.build_with_cost p ~buckets:b in
    let _, sap1s = H.Sap1.build_with_cost ps ~buckets:b in
    Helpers.check_close ~tol:1e-6 "sap1 scales" (9. *. sap1) sap1s;
    Helpers.check_close ~tol:1e-5 "wavelet scales"
      (9. *. wave_sse p data ~b)
      (wave_sse ps scaled ~b)
  done

(* Reversing the data reverses the query set onto itself and maps each
   representation class onto itself, so every optimal SSE is
   invariant. *)
let test_reversal_invariance () =
  let rng = Rng.create 2 in
  for _ = 1 to 8 do
    let n = 4 + Rng.int rng 12 in
    let data = Helpers.random_int_data rng ~n ~hi:15 in
    let rev = Array.init n (fun i -> data.(n - 1 - i)) in
    let p = Helpers.prefix_of data and pr = Helpers.prefix_of rev in
    let b = 1 + Rng.int rng 3 in
    Helpers.check_close ~tol:1e-6 "opt-a reversal"
      (opt_sse p ~buckets:b) (opt_sse pr ~buckets:b);
    let _, s0 = H.Sap0.build_with_cost p ~buckets:b in
    let _, s0r = H.Sap0.build_with_cost pr ~buckets:b in
    Helpers.check_close ~tol:1e-6 "sap0 reversal" s0 s0r;
    let _, s1 = H.Sap1.build_with_cost p ~buckets:b in
    let _, s1r = H.Sap1.build_with_cost pr ~buckets:b in
    Helpers.check_close ~tol:1e-6 "sap1 reversal" s1 s1r;
    (* Reversal permutes Haar detail magnitudes level-wise (up to sign),
       so the range-optimal wavelet SSE is invariant when n+1 is a power
       of two. *)
    if Rs_wavelet.Haar.is_pow2 (n + 1) then
      Helpers.check_close ~tol:1e-5 "wavelet reversal"
        (wave_sse p data ~b) (wave_sse pr rev ~b)
  done

(* Adding a constant to every value leaves average-based errors
   untouched (g_t is shift-invariant), so OPT-A / A0 / point-opt optima
   are invariant. *)
let test_shift_invariance_avg_class () =
  let rng = Rng.create 3 in
  for _ = 1 to 8 do
    let n = 4 + Rng.int rng 12 in
    let data = Helpers.random_int_data rng ~n ~hi:15 in
    let shifted = Array.map (fun v -> v +. 7.) data in
    let p = Helpers.prefix_of data and psh = Helpers.prefix_of shifted in
    let b = 1 + Rng.int rng 3 in
    Helpers.check_close ~tol:1e-5 "opt-a shift"
      (opt_sse p ~buckets:b) (opt_sse psh ~buckets:b);
    let a0 = H.A0.build p ~buckets:b and a0s = H.A0.build psh ~buckets:b in
    Helpers.check_close ~tol:1e-5 "a0 shift"
      (Helpers.hist_sse p a0) (Helpers.hist_sse psh a0s);
    let _, v = H.Vopt.build_with_cost p ~buckets:b in
    let _, vs = H.Vopt.build_with_cost psh ~buckets:b in
    Helpers.check_close ~tol:1e-5 "point-opt objective shift" v vs
  done

(* Prefix-difference estimators are additive over adjacent ranges. *)
let test_additivity () =
  let rng = Rng.create 4 in
  let n = 24 in
  let data = Helpers.random_int_data rng ~n ~hi:20 in
  let p = Helpers.prefix_of data in
  let estimators =
    [
      ("opt-a", Helpers.hist_estimator (Opt_a.build p ~buckets:4));
      ("a0", Helpers.hist_estimator (H.A0.build p ~buckets:4));
      ("equi-width", Helpers.hist_estimator (H.Baselines.equi_width p ~buckets:4));
      ( "wave-range-opt",
        fun ~a ~b -> W.estimate (W.range_optimal data ~b:4) ~a ~b );
    ]
  in
  List.iter
    (fun (name, est) ->
      for _ = 1 to 30 do
        let x = 1 + Rng.int rng n in
        let z = x + Rng.int rng (n - x + 1) in
        if z > x then begin
          let y = x + Rng.int rng (z - x) in
          Helpers.check_close ~tol:1e-6 (name ^ " additive")
            (est ~a:x ~b:z)
            (est ~a:x ~b:y +. est ~a:(y + 1) ~b:z)
        end
      done)
    estimators

(* Duplicating each data point (A' has every value twice) doubles every
   bucket width; the OPT-A optimum with the same B on A' relates to A's:
   not an identity we rely on — instead check the weaker, always-true
   direction that optimal SSE is monotone under refinement of the
   query domain: appending zeros never decreases the optimal SSE at
   fixed B (more queries, superset objective over a comparable class). *)
let test_appending_zeros_monotone () =
  let rng = Rng.create 5 in
  for _ = 1 to 6 do
    let n = 4 + Rng.int rng 8 in
    let data = Helpers.random_int_data rng ~n ~hi:10 in
    let padded = Array.append data (Array.make 3 0.) in
    let p = Helpers.prefix_of data and pp = Helpers.prefix_of padded in
    let b = 1 + Rng.int rng 3 in
    Alcotest.(check bool) "padded >= original" true
      (opt_sse pp ~buckets:b >= opt_sse p ~buckets:b -. 1e-6)
  done

(* Random-synopsis codec fuzz: any synopsis the builder can produce
   round-trips bit-exactly. *)
let test_codec_fuzz () =
  let rng = Rng.create 6 in
  for _ = 1 to 40 do
    let n = 2 + Rng.int rng 40 in
    let data =
      Array.init n (fun _ -> Rng.int rng 50)
    in
    let ds = Rs_core.Dataset.of_ints data in
    let methods = Rs_core.Builder.methods in
    let m = List.nth methods (Rng.int rng (List.length methods)) in
    let m = if m = "opt-a" || m = "opt-a-reopt" then "a0" (* keep the fuzz fast *) else m in
    let budget = 2 + Rng.int rng 30 in
    let s = Rs_core.Builder.build ds ~method_name:m ~budget_words:budget in
    let s' = Rs_util.Error.get (Rs_core.Codec.decode_result (Rs_core.Codec.to_string s)) in
    let a = 1 + Rng.int rng n in
    let b = a + Rng.int rng (n - a + 1) in
    let e = Rs_core.Synopsis.estimate s ~a ~b in
    let e' = Rs_core.Synopsis.estimate s' ~a ~b in
    if e <> e' then
      Alcotest.failf "codec fuzz: %s differs at (%d,%d): %h vs %h" m a b e e'
  done

let () =
  Alcotest.run "properties"
    [
      ( "metamorphic",
        [
          Alcotest.test_case "scaling is quadratic" `Quick test_scaling_quadratic;
          Alcotest.test_case "reversal invariance" `Quick test_reversal_invariance;
          Alcotest.test_case "shift invariance (avg class)" `Quick test_shift_invariance_avg_class;
          Alcotest.test_case "additivity" `Quick test_additivity;
          Alcotest.test_case "zero padding monotone" `Quick test_appending_zeros_monotone;
          Alcotest.test_case "codec fuzz" `Quick test_codec_fuzz;
        ] );
    ]
