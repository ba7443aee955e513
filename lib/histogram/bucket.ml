module Checks = Rs_util.Checks

type t = {
  n : int;
  offsets : int array;
      (* offsets.(0) = 0, offsets.(k+1) = right endpoint of bucket k:
         bucket k spans offsets.(k)+1 .. offsets.(k+1), the last ends at n *)
}

let of_rights ~n rights =
  let n = Checks.positive ~name:"Bucket.of_rights n" n in
  let b = Array.length rights in
  Checks.check (b > 0) "Bucket.of_rights: at least one bucket required";
  Checks.check (rights.(b - 1) = n) "Bucket.of_rights: last right endpoint must be n";
  Array.iteri
    (fun k r ->
      ignore (Checks.in_range ~name:"Bucket.of_rights endpoint" ~lo:1 ~hi:n r);
      if k > 0 then
        Checks.check (rights.(k - 1) < r)
          "Bucket.of_rights: right endpoints must be strictly increasing")
    rights;
  { n; offsets = Array.append [| 0 |] rights }

let single ~n = of_rights ~n [| n |]
let singletons ~n = of_rights ~n (Array.init n (fun i -> i + 1))

let equi_width ~n ~buckets =
  let n = Checks.positive ~name:"Bucket.equi_width n" n in
  let b = max 1 (min buckets n) in
  (* r_k = ⌊(k+1)·n/b⌋ is strictly increasing when b ≤ n and spreads the
     remainder so widths differ by at most one. *)
  let rights = Array.init b (fun k -> (k + 1) * n / b) in
  of_rights ~n rights

let n t = t.n
let count t = Array.length t.offsets - 1

let bounds t k =
  let k = Checks.in_range ~name:"Bucket.bounds" ~lo:0 ~hi:(count t - 1) k in
  (t.offsets.(k) + 1, t.offsets.(k + 1))

let width t k =
  let l, r = bounds t k in
  r - l + 1

let bucket_of t i =
  let i = Checks.in_range ~name:"Bucket.bucket_of" ~lo:1 ~hi:t.n i in
  Rs_query.Segments.locate t.offsets i

let left t i = t.offsets.(bucket_of t i) + 1
let right t i = t.offsets.(bucket_of t i + 1)
let rights t = Array.sub t.offsets 1 (count t)

let iter f t =
  for k = 0 to count t - 1 do
    let l, r = bounds t k in
    f k ~l ~r
  done

let fold f init t =
  let acc = ref init in
  iter (fun k ~l ~r -> acc := f !acc k ~l ~r) t;
  !acc

let equal a b = a.n = b.n && a.offsets = b.offsets

let pp fmt t =
  Format.fprintf fmt "@[<h>[";
  iter (fun k ~l ~r ->
      if k > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%d..%d" l r)
    t;
  Format.fprintf fmt "]@]"

let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0.
  else begin
    let acc = ref 1. in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc
  end

let enumerate ~n ~buckets =
  let n = Checks.positive ~name:"Bucket.enumerate n" n in
  let b = Checks.in_range ~name:"Bucket.enumerate buckets" ~lo:1 ~hi:n buckets in
  Checks.check
    (binomial (n - 1) (b - 1) <= 1e6)
    "Bucket.enumerate: too many bucketings (limit 1e6)";
  (* Choose b−1 interior right endpoints from 1..n−1, increasing. *)
  let acc = ref [] in
  let chosen = Array.make b 0 in
  let rec go slot lo =
    if slot = b - 1 then begin
      chosen.(b - 1) <- n;
      acc := of_rights ~n (Array.copy chosen) :: !acc
    end
    else
      for r = lo to n - (b - 1 - slot) do
        chosen.(slot) <- r;
        go (slot + 1) (r + 1)
      done
  in
  go 0 1;
  List.rev !acc
