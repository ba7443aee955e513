module W = Rs_wavelet
module Haar = W.Haar
module Synopsis = W.Synopsis
module Prefix = Rs_util.Prefix
module Error = Rs_query.Error
module Rng = Rs_dist.Rng

let syn_estimator s ~a ~b = Synopsis.estimate s ~a ~b
let syn_sse p s = Error.sse_all_ranges p (syn_estimator s)

let test_storage_words () =
  let s = Synopsis.top_b_data [| 1.; 2.; 3.; 4. |] ~b:3 in
  Alcotest.(check int) "2 per coeff" 6 (Synopsis.storage_words s)

let test_full_budget_exact_data_domain () =
  let rng = Rng.create 1 in
  for _ = 1 to 5 do
    let n = 1 + Rng.int rng 20 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    let p = Prefix.create data in
    let s = Synopsis.top_b_data data ~b:(Haar.next_pow2 n) in
    Helpers.check_close ~tol:1e-5 "sse 0" 0. (syn_sse p s);
    for i = 1 to n do
      Helpers.check_close ~tol:1e-8 "point" data.(i - 1) (Synopsis.point_estimate s ~i)
    done
  done

let test_full_budget_exact_prefix_domain () =
  let rng = Rng.create 2 in
  for _ = 1 to 5 do
    let n = 1 + Rng.int rng 20 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    let p = Prefix.create data in
    let s = Synopsis.range_optimal data ~b:(Haar.next_pow2 (n + 1)) in
    Helpers.check_close ~tol:1e-5 "sse 0" 0. (syn_sse p s)
  done

let test_prefix_hat_consistent () =
  (* estimate is exactly the difference of prefix_hat, and the closed-
     form SSE on prefix_hat equals brute force. *)
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 30 in
    let data = Helpers.random_int_data rng ~n ~hi:25 in
    let p = Prefix.create data in
    List.iter
      (fun s ->
        let dh = Synopsis.prefix_hat s in
        for a = 1 to n do
          for b = a to n do
            Helpers.check_close ~tol:1e-8 "estimate = D̂ diff"
              (dh.(b) -. dh.(a - 1))
              (Synopsis.estimate s ~a ~b)
          done
        done;
        Helpers.check_close ~tol:1e-5 "closed sse = brute"
          (syn_sse p s)
          (Error.sse_prefix_form p dh))
      [
        Synopsis.top_b_data data ~b:3;
        Synopsis.top_b_range_weighted data ~b:3;
        Synopsis.range_optimal data ~b:3;
      ]
  done

let test_estimate_additive () =
  let data = [| 5.; 1.; 7.; 3.; 9.; 2.; 8.; 4. |] in
  let s = Synopsis.range_optimal data ~b:4 in
  (* s[1,8] = s[1,4] + s[5,8] for any prefix-difference estimator. *)
  Helpers.check_close "additive"
    (Synopsis.estimate s ~a:1 ~b:8)
    (Synopsis.estimate s ~a:1 ~b:4 +. Synopsis.estimate s ~a:5 ~b:8)

(* Exhaustive optimality of range_optimal among all detail subsets, when
   n+1 is a power of two (no padding). *)
let subsets list k =
  let rec go list k =
    if k = 0 then [ [] ]
    else
      match list with
      | [] -> []
      | x :: rest ->
          List.map (fun s -> x :: s) (go rest (k - 1)) @ go rest k
  in
  go list k

let test_range_optimal_exhaustive () =
  let rng = Rng.create 4 in
  for _trial = 1 to 5 do
    let n = 7 in
    let data = Helpers.random_int_data rng ~n ~hi:20 in
    let p = Prefix.create data in
    let d = Array.make (n + 1) 0. in
    for i = 1 to n do
      d.(i) <- d.(i - 1) +. data.(i - 1)
    done;
    let w = Haar.transform d in
    let b = 3 in
    let opt = Synopsis.range_optimal data ~b in
    let opt_sse = syn_sse p opt in
    (* All 3-subsets of detail indices 1..7. *)
    List.iter
      (fun subset ->
        let coeffs = Array.of_list (List.map (fun i -> (i, w.(i))) subset) in
        let s = Synopsis.of_coefficients ~n Synopsis.Prefix_sums coeffs in
        Alcotest.(check bool) "range_optimal minimal" true
          (opt_sse <= syn_sse p s +. 1e-6))
      (subsets [ 1; 2; 3; 4; 5; 6; 7 ] b)
  done

let test_sse_identity_pow2 () =
  (* For n+1 a power of two: SSE = (n+1)·Σ_{dropped details} γ². *)
  let rng = Rng.create 5 in
  List.iter
    (fun n ->
      let data = Helpers.random_int_data rng ~n ~hi:50 in
      let p = Prefix.create data in
      let d = Array.make (n + 1) 0. in
      for i = 1 to n do
        d.(i) <- d.(i - 1) +. data.(i - 1)
      done;
      let w = Haar.transform d in
      List.iter
        (fun b ->
          let s = Synopsis.range_optimal data ~b in
          let kept = Array.map fst (Synopsis.coefficients s) in
          let dropped = ref 0. in
          for i = 1 to n do
            if not (Array.mem i kept) then dropped := !dropped +. (w.(i) *. w.(i))
          done;
          Helpers.check_close ~tol:1e-5
            (Printf.sprintf "identity n=%d b=%d" n b)
            (float_of_int (n + 1) *. !dropped)
            (syn_sse p s))
        [ 1; 2; 4 ])
    [ 7; 15; 31 ]

let test_scaling_coefficient_free () =
  (* Adding the scaling coefficient to a prefix-domain synopsis changes
     no range answer. *)
  let data = [| 3.; 8.; 1.; 6.; 2.; 9.; 4. |] in
  let n = Array.length data in
  let d = Array.make (n + 1) 0. in
  for i = 1 to n do
    d.(i) <- d.(i - 1) +. data.(i - 1)
  done;
  let w = Haar.transform d in
  let details = [| (1, w.(1)); (3, w.(3)) |] in
  let with_scaling = Array.append [| (0, w.(0)) |] details in
  let s1 = Synopsis.of_coefficients ~n Synopsis.Prefix_sums details in
  let s2 = Synopsis.of_coefficients ~n Synopsis.Prefix_sums with_scaling in
  for a = 1 to n do
    for b = a to n do
      Helpers.check_close ~tol:1e-8 "same answer"
        (Synopsis.estimate s1 ~a ~b)
        (Synopsis.estimate s2 ~a ~b)
    done
  done

let test_range_optimal_never_keeps_scaling () =
  let data = Array.init 31 (fun i -> float_of_int ((i * 7 mod 13) + 1)) in
  let s = Synopsis.range_optimal data ~b:5 in
  Array.iter
    (fun (i, _) -> Alcotest.(check bool) "no scaling" true (i <> 0))
    (Synopsis.coefficients s)

let test_monotone_in_b () =
  let rng = Rng.create 6 in
  let n = 31 in
  let data = Helpers.random_int_data rng ~n ~hi:40 in
  let p = Prefix.create data in
  let prev = ref Float.infinity in
  List.iter
    (fun b ->
      let s = Synopsis.range_optimal data ~b in
      let sse = syn_sse p s in
      Alcotest.(check bool) "monotone" true (sse <= !prev +. 1e-6);
      prev := sse)
    [ 1; 2; 4; 8; 16; 31 ]

let test_paper_dataset_dimensions () =
  (* The paper's n = 127 means the prefix vector has length 128 = 2⁷:
     range_optimal is exactly optimal there, no padding. *)
  let data = Array.map float_of_int (Rs_dist.Datasets.paper ()) in
  let s = Synopsis.range_optimal data ~b:10 in
  Alcotest.(check int) "10 coefficients" 20 (Synopsis.storage_words s);
  Alcotest.(check int) "n" 127 (Synopsis.n s)

let test_of_coefficients_validation () =
  (try
     ignore
       (Synopsis.of_coefficients ~n:4 Synopsis.Data [| (0, 1.); (0, 2.) |]);
     Alcotest.fail "expected Invalid_argument (duplicate)"
   with Invalid_argument _ -> ());
  try
    ignore (Synopsis.of_coefficients ~n:4 Synopsis.Data [| (99, 1.) |]);
    Alcotest.fail "expected Invalid_argument (range)"
  with Invalid_argument _ -> ()

(* --- error-budgeted construction and prediction --- *)

let test_predicted_sse_matches_measured () =
  (* For n+1 a power of two the construction-time prediction is exact. *)
  let rng = Rng.create 60 in
  List.iter
    (fun n ->
      let data = Helpers.random_int_data rng ~n ~hi:40 in
      let p = Prefix.create data in
      List.iter
        (fun b ->
          let s = Synopsis.range_optimal data ~b in
          match Synopsis.predicted_sse s with
          | None -> Alcotest.fail "range_optimal must predict"
          | Some predicted ->
              Helpers.check_close ~tol:1e-5 "prediction exact" (syn_sse p s)
                predicted)
        [ 1; 3; 8 ])
    [ 7; 15; 31 ]

let test_predicted_none_for_heuristics () =
  let data = [| 1.; 5.; 2.; 8. |] in
  Alcotest.(check bool) "topbb no prediction" true
    (Synopsis.predicted_sse (Synopsis.top_b_data data ~b:2) = None);
  let s = Synopsis.range_optimal data ~b:2 in
  Alcotest.(check bool) "update clears prediction" true
    (Synopsis.predicted_sse (Synopsis.update s ~i:1 ~delta:2.) = None)

let test_range_optimal_for_sse_meets_target () =
  let rng = Rng.create 61 in
  for _ = 1 to 8 do
    let n = 15 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    let p = Prefix.create data in
    let full = syn_sse p (Synopsis.range_optimal data ~b:1) in
    List.iter
      (fun frac ->
        let max_sse = full *. frac in
        let s = Synopsis.range_optimal_for_sse data ~max_sse in
        Alcotest.(check bool) "meets target" true (syn_sse p s <= max_sse +. 1e-6))
      [ 1.5; 0.5; 0.1; 0.01; 0. ]
  done

let test_range_optimal_for_sse_minimal () =
  (* One fewer coefficient must violate the target (when any are kept). *)
  let rng = Rng.create 62 in
  let n = 31 in
  let data = Helpers.random_int_data rng ~n ~hi:50 in
  let p = Prefix.create data in
  let full = syn_sse p (Synopsis.range_optimal data ~b:1) in
  List.iter
    (fun frac ->
      let max_sse = full *. frac in
      let s = Synopsis.range_optimal_for_sse data ~max_sse in
      let b = Array.length (Synopsis.coefficients s) in
      if b > 0 then begin
        let smaller =
          if b = 1 then Synopsis.of_coefficients ~n Synopsis.Prefix_sums [||]
          else Synopsis.range_optimal data ~b:(b - 1)
        in
        Alcotest.(check bool) "b−1 violates target" true
          (syn_sse p smaller > max_sse -. 1e-6)
      end)
    [ 0.5; 0.05 ]

(* --- mergeability --- *)

let test_merge_exact_under_full_budget () =
  let rng = Rng.create 63 in
  for _ = 1 to 6 do
    let n = 1 + Rng.int rng 20 in
    let a1 = Helpers.random_int_data rng ~n ~hi:15 in
    let a2 = Helpers.random_int_data rng ~n ~hi:15 in
    let sum = Array.init n (fun i -> a1.(i) +. a2.(i)) in
    let p = Prefix.create sum in
    let b = Haar.next_pow2 (n + 1) in
    let merged = Synopsis.merge (Synopsis.range_optimal a1 ~b) (Synopsis.range_optimal a2 ~b) in
    Helpers.check_close ~tol:1e-5 "merge exact" 0. (syn_sse p merged)
  done

let test_merge_approximates_sum () =
  (* Compressible (Zipf) shards: the merged synopsis must be close to
     the one built directly from the combined data, and far below the
     naive baseline.  (On incompressible data even the direct optimum
     barely beats naive, so skew is the meaningful regime here.) *)
  let n = 63 in
  let a1 =
    Array.map float_of_int (Rs_dist.Datasets.zipf ~seed:1 ~n ~alpha:1.6 ~total:4000. ())
  in
  let a2 =
    Array.map float_of_int (Rs_dist.Datasets.zipf ~seed:2 ~n ~alpha:1.3 ~total:4000. ())
  in
  let sum = Array.init n (fun i -> a1.(i) +. a2.(i)) in
  let p = Prefix.create sum in
  let merged = Synopsis.merge (Synopsis.range_optimal a1 ~b:12) (Synopsis.range_optimal a2 ~b:12) in
  let naive_sse =
    Rs_query.Error.sse_all_ranges p (Rs_query.Error.naive_estimator p)
  in
  let direct = syn_sse p (Synopsis.range_optimal sum ~b:12) in
  let merged_sse = syn_sse p merged in
  Alcotest.(check bool) "merged beats naive" true (merged_sse < naive_sse /. 10.);
  Alcotest.(check bool) "merged near direct" true (merged_sse <= (10. *. direct) +. 1e-6);
  Alcotest.(check int) "budget preserved" 24 (Synopsis.storage_words merged)

let test_merge_rejects_mismatch () =
  let s1 = Synopsis.range_optimal [| 1.; 2.; 3. |] ~b:2 in
  let s2 = Synopsis.range_optimal [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] ~b:2 in
  (try
     ignore (Synopsis.merge s1 s2);
     Alcotest.fail "expected Invalid_argument (size)"
   with Invalid_argument _ -> ());
  let d = Synopsis.top_b_data [| 1.; 2.; 3. |] ~b:2 in
  (try
     ignore (Synopsis.merge s1 d);
     Alcotest.fail "expected Invalid_argument (domain)"
   with Invalid_argument _ -> ());
  let aa = Synopsis.aa_2d [| 1.; 2.; 3. |] ~b:2 in
  try
    ignore (Synopsis.merge aa aa);
    Alcotest.fail "expected Invalid_argument (two-sided)"
  with Invalid_argument _ -> ()

(* --- dynamic maintenance --- *)

(* After a point update, each kept coefficient must equal the coefficient
   of the transform of the UPDATED data at the same index. *)
let check_update_tracks_truth build data =
  let n = Array.length data in
  let rng = Rng.create 314 in
  let s = build data in
  let i = 1 + Rng.int rng n in
  let delta = float_of_int (Rng.int rng 21 - 10) in
  let s' = Synopsis.update s ~i ~delta in
  let data' = Array.copy data in
  data'.(i - 1) <- data'.(i - 1) +. delta;
  (* Transform of the updated data in the synopsis' own domain. *)
  let w' =
    match Synopsis.domain s with
    | Synopsis.Data -> Haar.transform (Haar.pad `Zero data')
    | Synopsis.Prefix_sums ->
        let d = Array.make (n + 1) 0. in
        for k = 1 to n do
          d.(k) <- d.(k - 1) +. data'.(k - 1)
        done;
        Haar.transform (Haar.pad `Repeat_last d)
  in
  Array.iter
    (fun (index, c) ->
      Helpers.check_close ~tol:1e-6
        (Printf.sprintf "updated coeff %d" index)
        w'.(index) c)
    (Synopsis.coefficients s')

let test_update_data_domain () =
  let rng = Rng.create 42 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 30 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    check_update_tracks_truth (fun d -> Synopsis.top_b_data d ~b:4) data
  done

let test_update_prefix_domain () =
  let rng = Rng.create 43 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 30 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    check_update_tracks_truth (fun d -> Synopsis.range_optimal d ~b:4) data
  done

let test_update_two_sided () =
  let rng = Rng.create 44 in
  for _ = 1 to 5 do
    let n = 2 + Rng.int rng 20 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    check_update_tracks_truth (fun d -> Synopsis.aa_2d d ~b:5) data
  done

let test_update_full_budget_stays_exact () =
  (* With every coefficient kept, updates keep the synopsis exact. *)
  let data = [| 4.; 9.; 1.; 6.; 2.; 8.; 3.; 7. |] in
  let n = Array.length data in
  let s = ref (Synopsis.top_b_data data ~b:8) in
  let current = Array.copy data in
  let rng = Rng.create 45 in
  for _ = 1 to 20 do
    let i = 1 + Rng.int rng n in
    let delta = float_of_int (Rng.int rng 11 - 5) in
    s := Synopsis.update !s ~i ~delta;
    current.(i - 1) <- current.(i - 1) +. delta
  done;
  let p = Prefix.create current in
  Helpers.check_close ~tol:1e-5 "still exact" 0. (syn_sse p !s)

let test_update_rejects_bad_args () =
  let s = Synopsis.top_b_data [| 1.; 2. |] ~b:2 in
  (try
     ignore (Synopsis.update s ~i:0 ~delta:1.);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Synopsis.update s ~i:1 ~delta:Float.nan);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_range_optimal_beats_random_detail_subsets =
  Helpers.qtest ~count:60 "range-optimal <= random subset"
    Helpers.small_data_arb (fun data ->
      let n = Array.length data in
      if n < 3 then true
      else begin
        let p = Prefix.create data in
        let d = Array.make (n + 1) 0. in
        for i = 1 to n do
          d.(i) <- d.(i - 1) +. data.(i - 1)
        done;
        let padded = Haar.pad `Repeat_last d in
        let w = Haar.transform padded in
        let m = Array.length w in
        let b = 2 in
        let rng = Rng.create (Hashtbl.hash data) in
        let opt = Synopsis.range_optimal data ~b in
        (* A random pair of detail indices. *)
        let i1 = 1 + Rng.int rng (m - 1) in
        let i2 = 1 + Rng.int rng (m - 1) in
        if i1 = i2 then true
        else begin
          let s =
            Synopsis.of_coefficients ~n Synopsis.Prefix_sums
              [| (i1, w.(i1)); (i2, w.(i2)) |]
          in
          (* With padding the optimality claim is exact only for
             n+1 = 2^p; allow the boundary slack otherwise by testing on
             the no-padding case alone. *)
          if Haar.is_pow2 (n + 1) then syn_sse p opt <= syn_sse p s +. 1e-6
          else true
        end
      end)

(* --- reconstruction twins ---

   The oracle is the per-position fold the library ran before its
   coefficient-major reconstruction: one checked Haar.psi_prefix /
   Haar.reconstruct_point call per (position, coefficient).  The
   library must match it bit for bit — served estimates are differences
   of these vectors. *)

let oracle_prefix ~domain ~n ~padded coeffs =
  match domain with
  | Synopsis.Data ->
      Array.init (n + 1) (fun t ->
          Array.fold_left
            (fun acc (index, c) ->
              acc +. (c *. Haar.psi_prefix ~n:padded ~index ~upto:(t - 1)))
            0. coeffs)
  | Synopsis.Prefix_sums ->
      let raw =
        Array.init (n + 1) (fun t -> Haar.reconstruct_point ~n:padded ~coeffs ~pos:t)
      in
      let base = raw.(0) in
      Array.map (fun v -> v -. base) raw

let oracle_two_sided ~n ~padded right left =
  let reconstruct coeffs =
    Array.init (n + 1) (fun t -> Haar.reconstruct_point ~n:padded ~coeffs ~pos:t)
  in
  let f = reconstruct right and g = reconstruct left in
  let base = f.(0) in
  (Array.map (fun v -> v -. base) f, Array.map (fun v -> v -. base) g)

let check_bits msg expected actual =
  Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun t e ->
      if Int64.bits_of_float e <> Int64.bits_of_float actual.(t) then
        Alcotest.failf "%s: position %d: expected %h, got %h" msg t e actual.(t))
    expected

(* Coefficient values of every sign and scale: ordinary, negative,
   tiny (down to subnormal) and large. *)
let random_coeff rng =
  let mag =
    match Rng.int rng 6 with
    | 0 -> Float.ldexp (Rng.float rng) (-1070)
    | 1 -> Float.ldexp (Rng.float rng) (-40)
    | 2 -> Float.ldexp (Rng.float rng) 60
    | _ -> Rng.float rng *. 1000.
  in
  if Rng.int rng 2 = 0 then -.mag else mag

(* Up to [k] distinct indices from [lo, padded), in random order. *)
let random_coeffs rng ~padded ~lo ~k =
  let avail = padded - lo in
  if avail <= 0 then [||]
  else begin
    let pool = Array.init avail (fun i -> lo + i) in
    for i = avail - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = pool.(i) in
      pool.(i) <- pool.(j);
      pool.(j) <- x
    done;
    let k = min avail (Rng.int rng (k + 1)) in
    Array.init k (fun i -> (pool.(i), random_coeff rng))
  end

(* Domain sizes whose transform length is 2^p: a power of two itself and
   a random size that pads up to it. *)
let sizes_for_padded rng ~domain p =
  let len = 1 lsl p in
  match domain with
  | Synopsis.Data -> if p = 0 then [ 1 ] else [ len; (len / 2) + 1 + Rng.int rng (len / 2) ]
  | Synopsis.Prefix_sums ->
      (* padded = next_pow2 (n+1) *)
      if p = 0 then []
      else if p = 1 then [ 1 ]
      else [ len - 1; len / 2 + Rng.int rng (len / 2) ]

let test_reconstruction_twin_one_sided () =
  let rng = Rng.create 77 in
  List.iter
    (fun domain ->
      for p = 0 to 12 do
        List.iter
          (fun n ->
            for _ = 1 to 4 do
              let padded =
                match domain with
                | Synopsis.Data -> Haar.next_pow2 n
                | Synopsis.Prefix_sums -> Haar.next_pow2 (n + 1)
              in
              let coeffs = random_coeffs rng ~padded ~lo:0 ~k:48 in
              let coeffs =
                (* the scaling coefficient in about half the sets *)
                if Rng.int rng 2 = 0 && not (Array.exists (fun (i, _) -> i = 0) coeffs)
                then Array.append [| (0, random_coeff rng) |] coeffs
                else coeffs
              in
              let s = Synopsis.of_coefficients ~n domain coeffs in
              let sorted = Synopsis.coefficients s in
              check_bits
                (Printf.sprintf "n=%d padded=%d" n padded)
                (oracle_prefix ~domain ~n ~padded sorted)
                (Synopsis.prefix_hat s)
            done)
          (sizes_for_padded rng ~domain p)
      done)
    [ Synopsis.Data; Synopsis.Prefix_sums ]

let test_reconstruction_twin_two_sided () =
  let rng = Rng.create 78 in
  for p = 1 to 12 do
    List.iter
      (fun n ->
        for _ = 1 to 4 do
          let padded = Haar.next_pow2 (n + 1) in
          let right = random_coeffs rng ~padded ~lo:1 ~k:32 in
          let left = random_coeffs rng ~padded ~lo:1 ~k:32 in
          let s = Synopsis.of_two_sided ~n right left in
          let f, g = oracle_two_sided ~n ~padded right left in
          let msg = Printf.sprintf "n=%d padded=%d" n padded in
          check_bits (msg ^ " right") f (Synopsis.prefix_hat s);
          check_bits (msg ^ " left") g (Option.get (Synopsis.prefix_hat_left s))
        done)
      (sizes_for_padded rng ~domain:Synopsis.Prefix_sums p)
  done

let test_reconstruction_twin_update_two_sided () =
  let rng = Rng.create 79 in
  let data = Helpers.random_float_data rng ~n:300 ~hi:50. in
  let s = ref (Synopsis.aa_2d data ~b:24) in
  let padded = Haar.next_pow2 301 in
  for _ = 1 to 25 do
    let i = 1 + Rng.int rng 300 in
    s := Synopsis.update !s ~i ~delta:(random_coeff rng);
    let right, left = Synopsis.sides !s in
    let f, g = oracle_two_sided ~n:300 ~padded right (Option.get left) in
    check_bits "updated right" f (Synopsis.prefix_hat !s);
    check_bits "updated left" g (Option.get (Synopsis.prefix_hat_left !s))
  done

(* Stored entries decode to the estimates the per-position fold gives. *)
let test_reconstruction_twin_decoded_entries () =
  let rng = Rng.create 80 in
  let data = Helpers.random_float_data rng ~n:1000 ~hi:200. in
  List.iter
    (fun (what, syn) ->
      let bytes = Rs_core.Codec.to_string (Rs_core.Synopsis.Wavelet syn) in
      let decoded = Rs_core.Codec.of_string bytes in
      let n = Synopsis.n syn in
      let right, left = Synopsis.sides syn in
      let f, g =
        match left with
        | Some left -> oracle_two_sided ~n ~padded:(Haar.next_pow2 (n + 1)) right left
        | None ->
            let domain = Synopsis.domain syn in
            let padded =
              match domain with
              | Synopsis.Data -> Haar.next_pow2 n
              | Synopsis.Prefix_sums -> Haar.next_pow2 (n + 1)
            in
            let d = oracle_prefix ~domain ~n ~padded right in
            (d, d)
      in
      for _ = 1 to 500 do
        let a = 1 + Rng.int rng n in
        let b = a + Rng.int rng (n - a + 1) in
        let expected = f.(b) -. g.(a - 1) in
        let got = Rs_core.Synopsis.estimate decoded ~a ~b in
        if Int64.bits_of_float expected <> Int64.bits_of_float got then
          Alcotest.failf "%s [%d,%d]: expected %h, got %h" what a b expected got
      done)
    [
      ("topbb", Synopsis.top_b_data data ~b:32);
      ("wave-range-opt", Synopsis.range_optimal data ~b:32);
      ("wave-aa", Synopsis.aa_2d data ~b:32);
    ]

let test_support_matches_psi () =
  List.iter
    (fun n ->
      for index = 1 to n - 1 do
        let lo, mid, hi, v = Haar.support ~n ~index in
        for pos = 0 to n - 1 do
          let expected =
            if pos < lo || pos >= hi then 0. else if pos < mid then v else -.v
          in
          Alcotest.(check (float 0.)) "psi" expected (Haar.psi ~n ~index ~pos)
        done
      done)
    [ 2; 4; 8; 32 ];
  try
    ignore (Haar.support ~n:8 ~index:0);
    Alcotest.fail "expected Invalid_argument (scaling index)"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "wavelet_synopsis"
    [
      ( "basic",
        [
          Alcotest.test_case "storage" `Quick test_storage_words;
          Alcotest.test_case "full budget data" `Quick test_full_budget_exact_data_domain;
          Alcotest.test_case "full budget prefix" `Quick test_full_budget_exact_prefix_domain;
          Alcotest.test_case "prefix_hat consistent" `Quick test_prefix_hat_consistent;
          Alcotest.test_case "additive" `Quick test_estimate_additive;
          Alcotest.test_case "validation" `Quick test_of_coefficients_validation;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "exhaustive subsets" `Quick test_range_optimal_exhaustive;
          Alcotest.test_case "sse identity" `Quick test_sse_identity_pow2;
          Alcotest.test_case "scaling free" `Quick test_scaling_coefficient_free;
          Alcotest.test_case "never keeps scaling" `Quick test_range_optimal_never_keeps_scaling;
          Alcotest.test_case "monotone in b" `Quick test_monotone_in_b;
          Alcotest.test_case "paper dims" `Quick test_paper_dataset_dimensions;
          prop_range_optimal_beats_random_detail_subsets;
        ] );
      ( "error-budget",
        [
          Alcotest.test_case "prediction exact" `Quick test_predicted_sse_matches_measured;
          Alcotest.test_case "prediction scope" `Quick test_predicted_none_for_heuristics;
          Alcotest.test_case "meets target" `Quick test_range_optimal_for_sse_meets_target;
          Alcotest.test_case "minimal budget" `Quick test_range_optimal_for_sse_minimal;
        ] );
      ( "merge",
        [
          Alcotest.test_case "exact full budget" `Quick test_merge_exact_under_full_budget;
          Alcotest.test_case "approximates sum" `Quick test_merge_approximates_sum;
          Alcotest.test_case "rejects mismatch" `Quick test_merge_rejects_mismatch;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "update data domain" `Quick test_update_data_domain;
          Alcotest.test_case "update prefix domain" `Quick test_update_prefix_domain;
          Alcotest.test_case "update two-sided" `Quick test_update_two_sided;
          Alcotest.test_case "full budget stays exact" `Quick test_update_full_budget_stays_exact;
          Alcotest.test_case "bad args" `Quick test_update_rejects_bad_args;
        ] );
      ( "reconstruction",
        [
          Alcotest.test_case "one-sided = per-position fold" `Quick
            test_reconstruction_twin_one_sided;
          Alcotest.test_case "two-sided = per-position fold" `Quick
            test_reconstruction_twin_two_sided;
          Alcotest.test_case "update two-sided = per-position fold" `Quick
            test_reconstruction_twin_update_two_sided;
          Alcotest.test_case "decoded entries = per-position fold" `Quick
            test_reconstruction_twin_decoded_entries;
          Alcotest.test_case "support = psi" `Quick test_support_matches_psi;
        ] );
    ]
