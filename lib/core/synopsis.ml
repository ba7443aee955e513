module H = Rs_histogram.Histogram
module W = Rs_wavelet.Synopsis
module Error = Rs_query.Error

type t = Histogram of H.t | Wavelet of W.t

let name = function Histogram h -> H.name h | Wavelet w -> W.name w

let storage_words = function
  | Histogram h -> H.storage_words h
  | Wavelet w -> W.storage_words w

let estimate t ~a ~b =
  match t with
  | Histogram h -> H.estimate h ~a ~b
  | Wavelet w -> W.estimate w ~a ~b

let estimator t ~a ~b = estimate t ~a ~b
let point t ~i = estimate t ~a:i ~b:i

let domain_size = function
  | Histogram h -> Rs_histogram.Bucket.n (H.bucketing h)
  | Wavelet w -> W.n w

let quantile t ~q =
  let q = Float.min 1. (Float.max 0. q) in
  let n = domain_size t in
  let total = estimate t ~a:1 ~b:n in
  let target = q *. total in
  (* Linear scan: approximate prefixes need not be monotone, so take the
     first crossing. *)
  let rec go b =
    if b >= n then n
    else if estimate t ~a:1 ~b >= target then b
    else go (b + 1)
  in
  if total <= 0. then n else go 1

(* Full-SSE evaluation prefers the O(n) closed forms whenever the
   synopsis lowers to one; the O(n²) sweep remains only for rounded
   histograms (Opaque).  [sse_sweep] is the brute-force twin the test
   suite checks the fast paths against.  One lowering pass serves both
   the SSE and the prefix vector ([prefix_and_sse]). *)
type lowered =
  | Lowered of H.lowering  (* a shared-prefix wavelet lowers to [Prefix_form] *)
  | Two_sided of { right : float array; left : float array }

let lower = function
  | Histogram h -> Lowered (H.lowering h)
  | Wavelet w -> (
      match W.prefix_hat_left w with
      | None -> Lowered (H.Prefix_form (W.prefix_hat w))
      | Some left -> Two_sided { right = W.prefix_hat w; left })

let sse_lowered ds t lowered =
  let p = Dataset.prefix ds in
  match lowered with
  | Lowered (H.Prefix_form d) -> Error.sse_prefix_form p d
  | Lowered (H.Piecewise_form { right; left; windows }) ->
      Error.sse_piecewise_form p ~right ~left ~buckets:windows
  | Lowered H.Opaque -> Error.sse_all_ranges p (estimator t)
  | Two_sided { right; left } -> Error.sse_two_sided_form p ~right ~left

let sse ds t = sse_lowered ds t (lower t)

let sse_sweep ds t = Error.sse_all_ranges (Dataset.prefix ds) (estimator t)

let prefix_and_sse ?dataset t =
  let lowered = lower t in
  let prefix =
    match lowered with
    | Lowered (H.Prefix_form d) -> Some d
    | Lowered (H.Piecewise_form _ | H.Opaque) | Two_sided _ -> None
  in
  (prefix, Option.map (fun ds -> sse_lowered ds t lowered) dataset)

let prefix_vector t = fst (prefix_and_sse t)

(* Compile the synopsis into a Batch plan.  The plan's tables are the
   synopsis' own answering state (bit-exact copies), and the Batch
   loops restate [estimate]'s arithmetic exactly, so batch answers are
   bit-identical to the per-range path — the serving byte-determinism
   contract rides on this (pinned by the batch/per-range twins). *)
let batch_plan t =
  let module Batch = Rs_query.Batch in
  match t with
  | Wavelet w ->
      Batch.two_sided ~n:(W.n w) ~right:(W.prefix_hat w)
        ~left:(W.prefix_hat_left w)
  | Histogram h ->
      let module Bucket = Rs_histogram.Bucket in
      let bk = H.bucketing h in
      let n = Bucket.n bk in
      let buckets = Bucket.count bk in
      let index = Bucket.positions bk in
      let bucket_lo = Array.init buckets (fun k -> fst (Bucket.bounds bk k)) in
      let bucket_hi = Array.init buckets (fun k -> snd (Bucket.bounds bk k)) in
      let ends =
        match H.repr h with
        | H.Avg _ -> Batch.Avg
        | H.Sap0 { suff; pref } | H.Sap0_explicit { suff; pref; _ } ->
            Batch.Const { suff = Array.copy suff; pref = Array.copy pref }
        | H.Sap1 { suff; pref } ->
            let module R = Rs_linalg.Regression in
            Batch.Affine
              {
                suff_slope = Array.map (fun f -> f.R.slope) suff;
                suff_intercept = Array.map (fun f -> f.R.intercept) suff;
                pref_slope = Array.map (fun f -> f.R.slope) pref;
                pref_intercept = Array.map (fun f -> f.R.intercept) pref;
              }
      in
      Batch.bucketed ~n ~rounded:(H.rounded h) ~index ~bucket_lo ~bucket_hi
        ~avg:(H.avg_values h) ~cum:(H.cum_vector h) ends

let metrics ds t = Error.metrics_all_ranges (Dataset.prefix ds) (estimator t)

let workload_sse ds w t =
  Error.sse_of_workload (Dataset.prefix ds) w (estimator t)

let describe t =
  match t with
  | Histogram h ->
      Printf.sprintf "%s: histogram, %d buckets, %d words" (H.name h)
        (H.buckets h) (H.storage_words h)
  | Wavelet w ->
      Printf.sprintf "%s: wavelet synopsis, %d coefficients, %d words"
        (W.name w)
        (Array.length (W.coefficients w))
        (W.storage_words w)

(* Mergeability dispatch: both sides must be the same representation
   family — a histogram and a wavelet synopsis summarize through
   incompatible answering state, so a cross-family merge is a typed
   refusal, not a silent coercion. *)
let merge_result t1 t2 =
  Rs_util.Error.guard (fun () ->
      match (t1, t2) with
      | Histogram h1, Histogram h2 -> Histogram (H.merge h1 h2)
      | Wavelet w1, Wavelet w2 -> Wavelet (W.merge w1 w2)
      | Histogram _, Wavelet _ | Wavelet _, Histogram _ ->
          Rs_util.Error.raise_error
            (Rs_util.Error.Invalid_input
               "Synopsis.merge: cannot merge a histogram with a wavelet \
                synopsis"))

let merge t1 t2 = Rs_util.Error.get (merge_result t1 t2)
