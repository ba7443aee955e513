module Checks = Rs_util.Checks
module Regression = Rs_linalg.Regression

type repr =
  | Avg of float array
  | Sap0 of { suff : float array; pref : float array }
  | Sap0_explicit of {
      avg : float array;
      suff : float array;
      pref : float array;
    }
  | Sap1 of {
      suff : Regression.fit array;
      pref : Regression.fit array;
    }

type t = {
  bucketing : Bucket.t;
  repr : repr;
  rounded : bool;
  name : string;
  avg : float array; (* per-bucket value used for intra answering *)
  cum : float array; (* cum.(k) = Σ_{k'<k} width_{k'}·avg_{k'} *)
}

let check_len ~buckets ~what len =
  Checks.check (len = buckets)
    (Printf.sprintf "Histogram.make: %s has %d entries for %d buckets" what len
       buckets)

(* Recover the per-bucket intra value.  For SAP representations the
   identity suff + pref = (m+1)·s/m gives avg = (suff+pref)/(m+1); for
   SAP1 the mean of the fitted values over the bucket equals the mean of
   the fitted data (OLS), so evaluating at the mean position works. *)
let recover_avg bucketing repr =
  let b = Bucket.count bucketing in
  match repr with
  | Avg v -> Array.copy v
  | Sap0_explicit { avg; _ } -> Array.copy avg
  | Sap0 { suff; pref } ->
      Array.init b (fun k ->
          let m = float_of_int (Bucket.width bucketing k) in
          (suff.(k) +. pref.(k)) /. (m +. 1.))
  | Sap1 { suff; pref } ->
      Array.init b (fun k ->
          let l, r = Bucket.bounds bucketing k in
          let m = float_of_int (r - l + 1) in
          let mid = float_of_int (l + r) /. 2. in
          let suff_mean = Regression.predict suff.(k) mid in
          let pref_mean = Regression.predict pref.(k) mid in
          (suff_mean +. pref_mean) /. (m +. 1.))

let make ?(rounded = false) ?(name = "histogram") bucketing repr =
  let b = Bucket.count bucketing in
  (match repr with
  | Avg v -> check_len ~buckets:b ~what:"value array" (Array.length v)
  | Sap0 { suff; pref } ->
      check_len ~buckets:b ~what:"suffix array" (Array.length suff);
      check_len ~buckets:b ~what:"prefix array" (Array.length pref)
  | Sap0_explicit { avg; suff; pref } ->
      check_len ~buckets:b ~what:"average array" (Array.length avg);
      check_len ~buckets:b ~what:"suffix array" (Array.length suff);
      check_len ~buckets:b ~what:"prefix array" (Array.length pref)
  | Sap1 { suff; pref } ->
      check_len ~buckets:b ~what:"suffix fits" (Array.length suff);
      check_len ~buckets:b ~what:"prefix fits" (Array.length pref));
  let avg = recover_avg bucketing repr in
  let cum = Array.make (b + 1) 0. in
  for k = 0 to b - 1 do
    cum.(k + 1) <- cum.(k) +. (float_of_int (Bucket.width bucketing k) *. avg.(k))
  done;
  { bucketing; repr; rounded; name; avg; cum }

let bucketing t = t.bucketing
let repr t = t.repr
let name t = t.name
let rounded t = t.rounded
let buckets t = Bucket.count t.bucketing

let storage_words t =
  let b = buckets t in
  match t.repr with
  | Avg _ -> 2 * b
  | Sap0 _ -> 3 * b
  | Sap0_explicit _ -> 4 * b
  | Sap1 _ -> 5 * b

let estimate t ~a ~b =
  let n = Bucket.n t.bucketing in
  let a, b = Checks.ordered_pair ~name:"Histogram.estimate" ~lo:1 ~hi:n (a, b) in
  let ka = Bucket.bucket_of t.bucketing a in
  let kb = Bucket.bucket_of t.bucketing b in
  let raw =
    if ka = kb then float_of_int (b - a + 1) *. t.avg.(ka)
    else begin
      let middle = t.cum.(kb) -. t.cum.(ka + 1) in
      let left =
        match t.repr with
        | Avg v ->
            let r_a = snd (Bucket.bounds t.bucketing ka) in
            float_of_int (r_a - a + 1) *. v.(ka)
        | Sap0 { suff; _ } | Sap0_explicit { suff; _ } -> suff.(ka)
        | Sap1 { suff; _ } -> Regression.predict suff.(ka) (float_of_int a)
      in
      let right =
        match t.repr with
        | Avg v ->
            let l_b = fst (Bucket.bounds t.bucketing kb) in
            float_of_int (b - l_b + 1) *. v.(kb)
        | Sap0 { pref; _ } | Sap0_explicit { pref; _ } -> pref.(kb)
        | Sap1 { pref; _ } -> Regression.predict pref.(kb) (float_of_int b)
      in
      left +. middle +. right
    end
  in
  if t.rounded then Float.round raw else raw

type lowering =
  | Prefix_form of float array
  | Piecewise_form of {
      right : float array;
      left : float array;
      windows : (int * int * float) array;
    }
  | Opaque

(* The lowering restates [estimate] without the branch on query
   endpoints, so that full-SSE measurement can run in O(n)
   (Rs_query.Error.sse_prefix_form / sse_piecewise_form) instead of the
   O(n²) sweep.  For [Avg], inter- and intra-bucket answers coincide
   with differences of one approximate prefix vector
   [Ĉ[t] = cum(k_t) + (t−l+1)·avg(k_t)].  For the SAP representations
   the inter-bucket answer is [right[b] − left[a−1]] with per-endpoint
   vectors, and intra-bucket queries are re-answered with the bucket
   average over each window.  Rounding applies [Float.round] per query —
   not expressible in either form — so rounded histograms stay
   [Opaque]. *)
let lowering t =
  if t.rounded then Opaque
  else
    let n = Bucket.n t.bucketing in
    let b = buckets t in
    match t.repr with
    | Avg _ ->
        let d = Array.make (n + 1) 0. in
        for k = 0 to b - 1 do
          let l, r = Bucket.bounds t.bucketing k in
          for i = l to r do
            d.(i) <- t.cum.(k) +. (float_of_int (i - l + 1) *. t.avg.(k))
          done
        done;
        Prefix_form d
    | Sap0 _ | Sap0_explicit _ | Sap1 _ ->
        let right = Array.make (n + 1) 0. in
        let left = Array.make (n + 1) 0. in
        for k = 0 to b - 1 do
          let l, r = Bucket.bounds t.bucketing k in
          for v = l to r do
            let pref =
              match t.repr with
              | Avg _ -> assert false
              | Sap0 { pref; _ } | Sap0_explicit { pref; _ } -> pref.(k)
              | Sap1 { pref; _ } -> Regression.predict pref.(k) (float_of_int v)
            in
            right.(v) <- t.cum.(k) +. pref
          done;
          (* left.(u) covers query starts a = u+1 ∈ [l, r]. *)
          for u = l - 1 to r - 1 do
            let suff =
              match t.repr with
              | Avg _ -> assert false
              | Sap0 { suff; _ } | Sap0_explicit { suff; _ } -> suff.(k)
              | Sap1 { suff; _ } ->
                  Regression.predict suff.(k) (float_of_int (u + 1))
            in
            left.(u) <- t.cum.(k + 1) -. suff
          done
        done;
        let windows =
          Array.init b (fun k ->
              let l, r = Bucket.bounds t.bucketing k in
              (l, r, t.avg.(k)))
        in
        Piecewise_form { right; left; windows }

let avg_values t = Array.copy t.avg
let cum_vector t = Array.copy t.cum

let with_values t ?name values =
  match t.repr with
  | Avg _ ->
      check_len ~buckets:(buckets t) ~what:"value array" (Array.length values);
      let name = match name with Some n -> n | None -> t.name ^ "-reopt" in
      make ~rounded:t.rounded ~name t.bucketing (Avg (Array.copy values))
  | Sap0 _ | Sap0_explicit _ | Sap1 _ ->
      invalid_arg "Histogram.with_values: only Avg histograms can be re-valued"

(* Bounded merge name, mirroring the wavelet side: a merge of a merge
   keeps the same name instead of growing one suffix per merge. *)
let merged_suffix = "+merged"

let merged_name name =
  let ls = String.length merged_suffix and ln = String.length name in
  if ln >= ls && String.sub name (ln - ls) ls = merged_suffix then name
  else name ^ merged_suffix

let merge h1 h2 =
  let n = Bucket.n h1.bucketing in
  Checks.check
    (n = Bucket.n h2.bucketing)
    "Histogram.merge: histograms must share the domain size";
  Checks.check
    ((not h1.rounded) && not h2.rounded)
    "Histogram.merge: rounded histograms are not mergeable";
  let v1, v2 =
    match (h1.repr, h2.repr) with
    | Avg v1, Avg v2 -> (v1, v2)
    | _ -> invalid_arg "Histogram.merge: only Avg histograms are mergeable"
  in
  (* Common refinement: the union of the two right-endpoint sets.  On
     each refined bucket both inputs are constant-density, so summing
     the densities represents A1 + A2 with the additivity the
     estimator needs — merged answers equal the sum of the inputs'
     answers up to float association. *)
  let seen = Hashtbl.create 32 in
  let rights =
    Array.concat [ Bucket.rights h1.bucketing; Bucket.rights h2.bucketing ]
    |> Array.to_list
    |> List.filter (fun r ->
           if Hashtbl.mem seen r then false
           else begin
             Hashtbl.replace seen r ();
             true
           end)
    |> List.sort compare |> Array.of_list
  in
  let bk = Bucket.of_rights ~n rights in
  let values =
    Array.init (Bucket.count bk) (fun k ->
        let l, _ = Bucket.bounds bk k in
        v1.(Bucket.bucket_of h1.bucketing l)
        +. v2.(Bucket.bucket_of h2.bucketing l))
  in
  make ~name:(merged_name h1.name) bk (Avg values)

let refresh t p =
  let n = Bucket.n t.bucketing in
  Checks.check
    (Rs_util.Prefix.n p = n)
    "Histogram.refresh: prefix domain size must match";
  (match t.repr with
  | Avg _ -> ()
  | Sap0 _ | Sap0_explicit _ | Sap1 _ ->
      invalid_arg "Histogram.refresh: only Avg histograms can be refreshed");
  let values =
    Array.init (buckets t) (fun k ->
        let l, r = Bucket.bounds t.bucketing k in
        Rs_util.Prefix.mean p ~a:l ~b:r)
  in
  with_values t ~name:t.name values

let pp fmt t =
  Format.fprintf fmt "@[<v>%s: %d buckets, %d words, %a@]" t.name (buckets t)
    (storage_words t) Bucket.pp t.bucketing
