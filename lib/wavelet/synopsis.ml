module Checks = Rs_util.Checks
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace

let log_src = Logs.Src.create "rs.wavelet" ~doc:"Wavelet synopsis selection"

module Log = (val Logs.src_log log_src : Logs.LOG)

type domain = Data | Prefix_sums

type t = {
  domain : domain;
  n : int; (* attribute domain size *)
  padded : int; (* transform length *)
  coeffs : (int * float) array; (* sorted by index; the right/shared side *)
  coeffs_left : (int * float) array option;
      (* AA-style two-sided synopses keep a second set for the left
         query endpoint *)
  name : string;
  d_hat : float array; (* D̂[0..n], the induced approximate prefix vector *)
  d_hat_left : float array option;
      (* two-sided synopses: ŝ[a,b] = d_hat[b] − d_hat_left[a−1] *)
  predicted : float option;
      (* construction-time range-SSE prediction (range_optimal only) *)
}

let domain t = t.domain
let n t = t.n
let name t = t.name

let coefficients t =
  match t.coeffs_left with
  | None -> Array.copy t.coeffs
  | Some left -> Array.append t.coeffs left

let storage_words t =
  2
  * (Array.length t.coeffs
    + match t.coeffs_left with None -> 0 | Some l -> Array.length l)

(* Reconstruction, one coefficient at a time.  [add_prefix_terms] adds
   c·I_k(t−1) (the prefix integral {!Haar.psi_prefix}) to out.(t) and
   [add_point_terms] adds c·ψ_k(t) ({!Haar.psi}), for every t below
   [Array.length out].  Each product is the one those functions give,
   but the support geometry, its checks and √padded are worked out once
   per coefficient instead of once per position, and the position loop
   splits at the support boundaries instead of branching.  out.(t) still
   starts at 0. and takes its terms in coefficient order — zero terms
   (c·0.) included — so the result is bit-identical to the per-position
   fold (pinned against it in test_wavelet.ml). *)
let add_zero_terms out ~c ~lo ~hi =
  let zero = c *. 0. in
  for t = max 0 lo to min (Array.length out) hi - 1 do
    out.(t) <- out.(t) +. zero
  done

let add_prefix_terms out ~padded (index, c) =
  let len = Array.length out in
  if index = 0 then begin
    let s = sqrt (float_of_int padded) in
    add_zero_terms out ~c ~lo:0 ~hi:1;
    for t = 1 to len - 1 do
      out.(t) <- out.(t) +. (c *. (float_of_int t /. s))
    done
  end
  else begin
    let lo, mid, hi, v = Haar.support ~n:padded ~index in
    add_zero_terms out ~c ~lo:0 ~hi:(lo + 1);
    for t = lo + 1 to min len (mid + 1) - 1 do
      out.(t) <- out.(t) +. (c *. (v *. float_of_int (t - lo)))
    done;
    for t = mid + 1 to min len hi - 1 do
      out.(t) <- out.(t) +. (c *. (v *. float_of_int (hi - t)))
    done;
    add_zero_terms out ~c ~lo:hi ~hi:len
  end

let add_point_terms out ~padded (index, c) =
  let len = Array.length out in
  if index = 0 then begin
    let term = c *. (1. /. sqrt (float_of_int padded)) in
    for t = 0 to len - 1 do
      out.(t) <- out.(t) +. term
    done
  end
  else begin
    let lo, mid, hi, v = Haar.support ~n:padded ~index in
    let pos = c *. v and neg = c *. -.v in
    add_zero_terms out ~c ~lo:0 ~hi:lo;
    for t = lo to min len mid - 1 do
      out.(t) <- out.(t) +. pos
    done;
    for t = mid to min len hi - 1 do
      out.(t) <- out.(t) +. neg
    done;
    add_zero_terms out ~c ~lo:hi ~hi:len
  end

(* The length-(n+1) sum of [add] over the coefficients, in order. *)
let reconstruct ~n ~padded add coeffs =
  Checks.check (Haar.is_pow2 padded)
    "Synopsis: transform length must be a positive power of two";
  let out = Array.make (n + 1) 0. in
  Array.iter (add out ~padded) coeffs;
  out

let shift ~base v =
  for t = 0 to Array.length v - 1 do
    v.(t) <- v.(t) -. base
  done

(* D̂ induced by the coefficient set.
   Data domain: D̂[t] = Σ_k c_k·I_k(t−1) with I_k the prefix integral of
   ψ_k over data positions (0-based).
   Prefix domain: D̂[t] = reconstruction at position t, shifted so that
   D̂[0] = 0 (drops the immaterial constant component). *)
let induced_prefix ~domain ~n ~padded coeffs =
  match domain with
  | Data -> reconstruct ~n ~padded add_prefix_terms coeffs
  | Prefix_sums ->
      let d = reconstruct ~n ~padded add_point_terms coeffs in
      shift ~base:d.(0) d;
      d

(* Reconstruct the two endpoint prefix vectors of a two-sided synopsis,
   shifted by a COMMON constant so the difference f(b) − g(a−1) is
   unchanged but the vectors are anchored like the shared-prefix ones. *)
let two_sided_prefixes ~n ~padded right left =
  let f = reconstruct ~n ~padded add_point_terms right in
  let g = reconstruct ~n ~padded add_point_terms left in
  let base = f.(0) in
  shift ~base f;
  shift ~base g;
  (f, g)

let make ~domain ~n ~padded ~name coeffs =
  let coeffs = Array.copy coeffs in
  Array.sort (fun (i, _) (j, _) -> compare i j) coeffs;
  Array.iteri
    (fun k (i, _) ->
      ignore (Checks.in_range ~name:"Synopsis coefficient index" ~lo:0 ~hi:(padded - 1) i);
      if k > 0 then
        Checks.check (fst coeffs.(k - 1) <> i) "Synopsis: duplicate coefficient index")
    coeffs;
  {
    domain;
    n;
    padded;
    coeffs;
    coeffs_left = None;
    name;
    d_hat = induced_prefix ~domain ~n ~padded coeffs;
    d_hat_left = None;
    predicted = None;
  }

let check_data data =
  ignore (Checks.non_empty_array ~name:"Synopsis data" data);
  Array.iter (fun v -> ignore (Checks.finite ~name:"Synopsis data" v)) data

(* Indices of the [b] largest scores (stable: ties towards smaller
   index), returned with their transform values. *)
let select_top ~b ~score transformed =
  let len = Array.length transformed in
  let order = Array.init len (fun i -> i) in
  let cmp i j = match compare (score j) (score i) with 0 -> compare i j | c -> c in
  Array.sort cmp order;
  Array.init (min b len) (fun k ->
      let i = order.(k) in
      (i, transformed.(i)))

let top_b_data data ~b =
  check_data data;
  let b = Checks.positive ~name:"Synopsis.top_b_data b" b in
  let n = Array.length data in
  let padded_data = Haar.pad `Zero data in
  let w = Haar.transform padded_data in
  let coeffs = select_top ~b ~score:(fun i -> abs_float w.(i)) w in
  make ~domain:Data ~n ~padded:(Array.length w) ~name:"topbb" coeffs

(* Range weight of data-domain coefficient k: the SSE over all ranges of
   dropping it alone, divided by c².  With I(u) the prefix integral of
   ψ over data positions and the query set {(u,v) : −1 ≤ u < v ≤ n−1}
   (u = a−2, v = b−1), the pair identity gives
   (n+1)·ΣI² − (ΣI)² over u ∈ {−1, ..., n−1}. *)
let range_weight ~n ~padded index =
  let sum = ref 0. and sum2 = ref 0. in
  (* I(−1) = 0 contributes only to the count. *)
  for u = 0 to n - 1 do
    let i = Haar.psi_prefix ~n:padded ~index ~upto:u in
    sum := !sum +. i;
    sum2 := !sum2 +. (i *. i)
  done;
  (float_of_int (n + 1) *. !sum2) -. (!sum *. !sum)

let top_b_range_weighted data ~b =
  check_data data;
  let b = Checks.positive ~name:"Synopsis.top_b_range_weighted b" b in
  let n = Array.length data in
  let padded_data = Haar.pad `Zero data in
  let w = Haar.transform padded_data in
  let padded = Array.length w in
  let weights = Array.init padded (fun i -> range_weight ~n ~padded i) in
  let coeffs =
    select_top ~b ~score:(fun i -> w.(i) *. w.(i) *. weights.(i)) w
  in
  make ~domain:Data ~n ~padded ~name:"topbb-rw" coeffs

let prefix_transform data =
  let n = Array.length data in
  let d = Array.make (n + 1) 0. in
  for i = 1 to n do
    d.(i) <- d.(i - 1) +. data.(i - 1)
  done;
  Haar.transform (Haar.pad `Repeat_last d)

(* (n+1)·Σ w_i² over the details NOT in [kept] — the exact range-SSE of
   the selection when n+1 is a power of two (Theorem 9 identity). *)
let residual_sse ~n w kept =
  let in_kept = Hashtbl.create 16 in
  Array.iter (fun (i, _) -> Hashtbl.replace in_kept i ()) kept;
  let dropped = ref 0. in
  for i = 1 to Array.length w - 1 do
    if not (Hashtbl.mem in_kept i) then dropped := !dropped +. (w.(i) *. w.(i))
  done;
  float_of_int (n + 1) *. !dropped

let range_optimal data ~b =
  check_data data;
  let b = Checks.positive ~name:"Synopsis.range_optimal b" b in
  Trace.with_span "wavelet.select" @@ fun () ->
  Metrics.count "wavelet.selections" 1;
  let n = Array.length data in
  let w = prefix_transform data in
  (* The scaling coefficient is free for range queries: exclude it from
     both the ranking and the budget. *)
  let score i = if i = 0 then Float.neg_infinity else abs_float w.(i) in
  let coeffs = select_top ~b ~score w in
  let coeffs = Array.of_list (List.filter (fun (i, _) -> i <> 0) (Array.to_list coeffs)) in
  let syn =
    make ~domain:Prefix_sums ~n ~padded:(Array.length w) ~name:"wave-range-opt"
      coeffs
  in
  { syn with predicted = Some (residual_sse ~n w coeffs) }

let range_optimal_for_sse data ~max_sse =
  check_data data;
  Checks.check (max_sse >= 0.) "Synopsis.range_optimal_for_sse: max_sse >= 0";
  let n = Array.length data in
  let w = prefix_transform data in
  let padded = Array.length w in
  (* Details in decreasing magnitude; keep until the residual fits. *)
  let order = Array.init (padded - 1) (fun i -> i + 1) in
  Array.sort
    (fun i j ->
      match compare (abs_float w.(j)) (abs_float w.(i)) with
      | 0 -> compare i j
      | c -> c)
    order;
  let total_detail =
    Array.fold_left (fun acc i -> acc +. (w.(i) *. w.(i))) 0. order
  in
  let m = float_of_int (n + 1) in
  let keep = ref 0 and kept_energy = ref 0. in
  while
    !keep < Array.length order && m *. (total_detail -. !kept_energy) > max_sse
  do
    kept_energy := !kept_energy +. (w.(order.(!keep)) *. w.(order.(!keep)));
    incr keep
  done;
  let coeffs = Array.init !keep (fun k -> (order.(k), w.(order.(k)))) in
  Metrics.count "wavelet.selections" 1;
  Log.debug (fun m ->
      m "range_optimal_for_sse: kept %d coefficients for max_sse %.4g" !keep
        max_sse);
  let syn =
    make ~domain:Prefix_sums ~n ~padded ~name:"wave-range-opt" coeffs
  in
  { syn with predicted = Some (residual_sse ~n w coeffs) }

let predicted_sse t = t.predicted

(* The canonical name of a merge result.  Appending "+merged" per
   merge grew without bound under chained merges (exactly what
   streaming windows do) and leaked into codec bytes, store listings
   and log lines — a merge of a merge keeps the same name. *)
let merged_suffix = "+merged"

let merged_name name =
  let ls = String.length merged_suffix and ln = String.length name in
  if ln >= ls && String.sub name (ln - ls) ls = merged_suffix then name
  else name ^ merged_suffix

let merge s1 s2 =
  Checks.check
    (s1.domain = s2.domain && s1.n = s2.n && s1.padded = s2.padded)
    "Synopsis.merge: synopses must share domain kind and size";
  Checks.check
    (s1.coeffs_left = None && s2.coeffs_left = None)
    "Synopsis.merge: two-sided synopses are not supported";
  let tbl = Hashtbl.create 32 in
  Array.iter (fun (i, c) -> Hashtbl.replace tbl i c) s1.coeffs;
  Array.iter
    (fun (i, c) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl i) in
      Hashtbl.replace tbl i (prev +. c))
    s2.coeffs;
  let b = max (Array.length s1.coeffs) (Array.length s2.coeffs) in
  (* Exactly-cancelled coefficients carry no signal; dropping them
     keeps chained merges from spending budget on zeros. *)
  let entries =
    Hashtbl.fold (fun i c acc -> if c = 0. then acc else (i, c) :: acc) tbl []
  in
  (* Magnitude-descending, equal-|γ| ties broken by lowest index: the
     ordering is total (indices are unique), so truncation is
     deterministic and byte-stable regardless of accumulation order. *)
  let entries =
    List.sort
      (fun (i1, c1) (i2, c2) ->
        match compare (abs_float c2) (abs_float c1) with
        | 0 -> compare i1 i2
        | c -> c)
      entries
  in
  let coeffs = Array.of_list (List.filteri (fun rank _ -> rank < b) entries) in
  make ~domain:s1.domain ~n:s1.n ~padded:s1.padded ~name:(merged_name s1.name)
    coeffs

let sides t =
  (Array.copy t.coeffs, Option.map Array.copy t.coeffs_left)

let validate_side ~padded ~what coeffs =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (i, _) ->
      ignore (Checks.in_range ~name:(what ^ " coefficient index") ~lo:1 ~hi:(padded - 1) i);
      Checks.check (not (Hashtbl.mem seen i)) (what ^ ": duplicate coefficient index");
      Hashtbl.replace seen i ())
    coeffs

let of_two_sided ?(name = "wave-aa") ~n right left =
  let n = Checks.positive ~name:"Synopsis.of_two_sided n" n in
  let padded = Haar.next_pow2 (n + 1) in
  validate_side ~padded ~what:"Synopsis.of_two_sided right" right;
  validate_side ~padded ~what:"Synopsis.of_two_sided left" left;
  let f, g = two_sided_prefixes ~n ~padded right left in
  {
    domain = Prefix_sums;
    n;
    padded;
    coeffs = Array.copy right;
    coeffs_left = Some (Array.copy left);
    name;
    d_hat = f;
    d_hat_left = Some g;
    predicted = None;
  }

let of_coefficients ?(name = "wavelet") ~n domain coeffs =
  let n = Checks.positive ~name:"Synopsis.of_coefficients n" n in
  let padded =
    match domain with
    | Data -> Haar.next_pow2 n
    | Prefix_sums -> Haar.next_pow2 (n + 1)
  in
  make ~domain ~n ~padded ~name coeffs

let estimate t ~a ~b =
  let a, b = Checks.ordered_pair ~name:"Synopsis.estimate" ~lo:1 ~hi:t.n (a, b) in
  let left = match t.d_hat_left with Some l -> l | None -> t.d_hat in
  t.d_hat.(b) -. left.(a - 1)

let point_estimate t ~i =
  let i = Checks.in_range ~name:"Synopsis.point_estimate" ~lo:1 ~hi:t.n i in
  estimate t ~a:i ~b:i

let prefix_hat t = Array.copy t.d_hat
let prefix_hat_left t = Option.map Array.copy t.d_hat_left

let update t ~i ~delta =
  let i = Checks.in_range ~name:"Synopsis.update i" ~lo:1 ~hi:t.n i in
  ignore (Checks.finite ~name:"Synopsis.update delta" delta);
  let adjust (index, c) =
    match t.domain with
    | Data ->
        (* A point update moves the data coefficient by δ·ψ(i−1). *)
        (index, c +. (delta *. Haar.psi ~n:t.padded ~index ~pos:(i - 1)))
    | Prefix_sums ->
        (* D[t] gains δ for every padded position t ≥ i (the repeat-last
           padding tracks D[n]), so the coefficient gains
           δ·(I(M−1) − I(i−1)). *)
        let gain =
          Haar.psi_prefix ~n:t.padded ~index ~upto:(t.padded - 1)
          -. Haar.psi_prefix ~n:t.padded ~index ~upto:(i - 1)
        in
        (index, c +. (delta *. gain))
  in
  let coeffs = Array.map adjust t.coeffs in
  (* The dropped-coefficient energy is unknown after an update. *)
  match t.coeffs_left with
  | None ->
      {
        t with
        coeffs;
        d_hat = induced_prefix ~domain:t.domain ~n:t.n ~padded:t.padded coeffs;
        predicted = None;
      }
  | Some left ->
      let left = Array.map adjust left in
      let f, g = two_sided_prefixes ~n:t.n ~padded:t.padded coeffs left in
      {
        t with
        coeffs;
        coeffs_left = Some left;
        d_hat = f;
        d_hat_left = Some g;
        predicted = None;
      }

(* The paper's literal Theorem-9 construction: 2-D Haar on the virtual
   array AA[i,j] = s[i,j] = P[j] − P[i−1].  Because AA = 1·Pᵀ − P'·1ᵀ is
   rank-2 and the Haar transform of the all-ones vector is supported on
   the scaling index alone, the 2-D coefficients live on row 0 (functions
   of the right endpoint, magnitudes √M·|γ_l|) and column 0 (functions of
   the left endpoint, same magnitudes up to the one-step shift of P').
   Top-B selection therefore takes the largest details of the prefix
   vector in near-equal pairs — one copy for each side of the query.  We
   realize this by giving the right side the top ⌈B/2⌉ details and the
   left side the top ⌊B/2⌋, reconstructing a separate prefix
   approximation for each endpoint.  The scaling coefficient is dropped
   from both sides, where it cancels in the difference. *)
let aa_2d data ~b =
  check_data data;
  let b = Checks.positive ~name:"Synopsis.aa_2d b" b in
  let n = Array.length data in
  let d = Array.make (n + 1) 0. in
  for i = 1 to n do
    d.(i) <- d.(i - 1) +. data.(i - 1)
  done;
  let padded_d = Haar.pad `Repeat_last d in
  let w = Haar.transform padded_d in
  let padded = Array.length w in
  let score i = if i = 0 then Float.neg_infinity else abs_float w.(i) in
  let right = select_top ~b:(min ((b + 1) / 2) (padded - 1)) ~score w in
  let left = select_top ~b:(min (b / 2) (padded - 1)) ~score w in
  let right = Array.of_list (List.filter (fun (i, _) -> i <> 0) (Array.to_list right)) in
  let left = Array.of_list (List.filter (fun (i, _) -> i <> 0) (Array.to_list left)) in
  let f, g = two_sided_prefixes ~n ~padded right left in
  {
    domain = Prefix_sums;
    n;
    padded;
    coeffs = right;
    coeffs_left = Some left;
    name = "wave-aa";
    d_hat = f;
    d_hat_left = Some g;
    predicted = None;
  }
