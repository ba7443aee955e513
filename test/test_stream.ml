(* Streaming ingestion: incremental prefix-moment twins (bit-exact
   freeze-vs-rebuild over random delta sequences), the mergeable
   synopsis operators (wavelet and histogram), the Stream module's
   ingest/staleness/refresh lifecycle (random histories against a
   plain model, an O(1)-per-delta allocation pin) with its WAL
   durability contract (torn tails, double delivery, kill -9
   mid-ingest, replay refusals), and the serving
   integration (ingest op, stale demotion, RMSE-bound suppression,
   restart durability). *)

module Error = Rs_util.Error
module Faults = Rs_util.Faults
module Governor = Rs_util.Governor
module Prefix = Rs_util.Prefix
module Rng = Rs_dist.Rng
module W = Rs_wavelet.Synopsis
module H = Rs_histogram.Histogram
module Bucket = Rs_histogram.Bucket
module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module CS = Rs_core.Synopsis
module Store = Rs_core.Store
module Seg = Rs_core.Segmented
module Stream = Rs_core.Stream
module Server = Rs_serve.Server
module P = Rs_serve.Protocol

let bits = Int64.bits_of_float

let check_bits name a b =
  if bits a <> bits b then Alcotest.failf "%s: %h vs %h" name a b

let close ?(tol = 1e-9) a b =
  abs_float (a -. b) <= tol *. Float.max 1. (abs_float a +. abs_float b)

(* [s[a,b]] summed from [Stream.data]: each overlapping segment adds
   [P[b'] - P[a'-1]] of its own plain left fold from 0. — the cells a
   per-segment prefix table holds, so the result is bit-comparable with
   [Prefix.Inc.range_sum] over each segment. *)
let data_range_sum t ~a ~b =
  let data = Stream.data t in
  Array.fold_left
    (fun acc (lo, hi) ->
      let lo' = max a lo and hi' = min b hi in
      if lo' > hi' then acc
      else begin
        let p = ref 0. in
        for u = lo to lo' - 1 do
          p := !p +. data.(u - 1)
        done;
        let before = !p in
        for u = lo' to hi' do
          p := !p +. data.(u - 1)
        done;
        acc +. (!p -. before)
      end)
    0. (Stream.plan t).Seg.bounds

let check_close ?tol name a b =
  if not (close ?tol a b) then Alcotest.failf "%s: %.17g vs %.17g" name a b

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let tmp_path suffix =
  let path = Filename.temp_file "rs_stream" suffix in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = tmp_path ".streamstore" in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* --- Prefix.Inc: bit-exact incremental maintenance -------------------- *)

(* The streaming contract in one check: an incrementally-maintained
   table, frozen, must be bit-identical to Prefix.create over the same
   data — prefix cells, all four moment tables (read through the public
   sums, which expose every cumulative cell), and the data itself. *)
let check_inc_twin name inc =
  let data = Prefix.Inc.data inc in
  let frozen = Prefix.Inc.freeze inc in
  let reference = Prefix.create data in
  let n = Prefix.n reference in
  Alcotest.(check int) (name ^ ": n") n (Prefix.n frozen);
  for k = 0 to n do
    check_bits
      (Printf.sprintf "%s: P[%d]" name k)
      (Prefix.prefix reference k) (Prefix.prefix frozen k);
    check_bits
      (Printf.sprintf "%s: live P[%d]" name k)
      (Prefix.prefix reference k)
      (Prefix.Inc.prefix inc k)
  done;
  for v = 0 to n do
    check_bits
      (Printf.sprintf "%s: sum_p[0..%d]" name v)
      (Prefix.sum_p reference ~u:0 ~v)
      (Prefix.sum_p frozen ~u:0 ~v);
    check_bits
      (Printf.sprintf "%s: sum_p2[0..%d]" name v)
      (Prefix.sum_p2 reference ~u:0 ~v)
      (Prefix.sum_p2 frozen ~u:0 ~v);
    check_bits
      (Printf.sprintf "%s: sum_tp[0..%d]" name v)
      (Prefix.sum_tp reference ~u:0 ~v)
      (Prefix.sum_tp frozen ~u:0 ~v)
  done;
  for b = 1 to n do
    check_bits
      (Printf.sprintf "%s: sum_a2[1..%d]" name b)
      (Prefix.sum_a2 reference ~a:1 ~b)
      (Prefix.sum_a2 frozen ~a:1 ~b)
  done

let rand_value rng = Rng.float rng *. 100.
let rand_delta rng = (Rng.float rng -. 0.3) *. 10.

(* >= 500 random sequences across the three shapes (append-only,
   delta-only, mixed), every one checked bit-exact. *)
let test_inc_append_twin () =
  let rng = Rng.create 0xC0FFEE in
  for case = 1 to 180 do
    let n = 1 + Rng.int rng 60 in
    let inc = Prefix.Inc.create () in
    for _ = 1 to n do
      Prefix.Inc.append inc (rand_value rng)
    done;
    Alcotest.(check int) "length" n (Prefix.Inc.n inc);
    check_inc_twin (Printf.sprintf "append case %d" case) inc
  done

let test_inc_delta_twin () =
  let rng = Rng.create 0xBEEF in
  for case = 1 to 180 do
    let n = 1 + Rng.int rng 50 in
    let base = Array.init n (fun _ -> rand_value rng) in
    let inc = Prefix.Inc.of_array base in
    let shadow = Array.copy base in
    for _ = 1 to 1 + Rng.int rng 30 do
      let i = 1 + Rng.int rng n in
      let d = rand_delta rng in
      Prefix.Inc.add inc ~i ~delta:d;
      shadow.(i - 1) <- shadow.(i - 1) +. d
    done;
    Array.iteri
      (fun j v ->
        check_bits
          (Printf.sprintf "delta case %d: A[%d]" case (j + 1))
          v
          (Prefix.Inc.value inc (j + 1)))
      shadow;
    check_inc_twin (Printf.sprintf "delta case %d" case) inc
  done

let test_inc_mixed_twin () =
  let rng = Rng.create 0xFEED in
  for case = 1 to 160 do
    let inc = Prefix.Inc.create () in
    Prefix.Inc.append inc (rand_value rng);
    for _ = 1 to 40 do
      if Rng.bool rng then Prefix.Inc.append inc (rand_value rng)
      else
        let i = 1 + Rng.int rng (Prefix.Inc.n inc) in
        Prefix.Inc.add inc ~i ~delta:(rand_delta rng)
    done;
    check_inc_twin (Printf.sprintf "mixed case %d" case) inc;
    (* range sums read off the live tables match the frozen twin *)
    let frozen = Prefix.Inc.freeze inc in
    let n = Prefix.Inc.n inc in
    for _ = 1 to 20 do
      let a = 1 + Rng.int rng n in
      let b = a + Rng.int rng (n - a + 1) in
      check_bits
        (Printf.sprintf "mixed case %d: s[%d,%d]" case a b)
        (Prefix.range_sum frozen ~a ~b)
        (Prefix.Inc.range_sum inc ~a ~b)
    done
  done

let test_inc_validation () =
  let inc = Prefix.Inc.of_array [| 1.; 2.; 3. |] in
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  rejects (fun () -> Prefix.Inc.append inc Float.nan);
  rejects (fun () -> Prefix.Inc.add inc ~i:0 ~delta:1.);
  rejects (fun () -> Prefix.Inc.add inc ~i:4 ~delta:1.);
  rejects (fun () -> Prefix.Inc.add inc ~i:1 ~delta:Float.infinity);
  rejects (fun () -> Prefix.Inc.freeze (Prefix.Inc.create ()));
  (* the rejected operations left the table untouched *)
  check_inc_twin "after rejects" inc

(* --- wavelet merge: bounded names, deterministic truncation ------------ *)

let test_merge_chain_name_bounded () =
  let data = Array.init 31 (fun i -> float_of_int ((i * 7 mod 13) + 1)) in
  let s0 = W.range_optimal data ~b:8 in
  let acc = ref s0 in
  for _ = 1 to 1000 do
    acc := W.merge !acc s0
  done;
  (* one "+merged" suffix, never a 1000-deep chain of them *)
  Alcotest.(check string) "bounded name" (W.name s0 ^ "+merged") (W.name !acc);
  Alcotest.(check int) "domain preserved" 31 (W.n !acc);
  Alcotest.(check bool)
    "budget bounded" true
    (W.storage_words !acc <= W.storage_words s0)

let test_merge_tiebreak_fixture () =
  (* Four coefficients of equal magnitude across the two inputs; budget
     keeps two.  Lowest index wins — pinned as exact output bytes. *)
  let s1 = W.of_coefficients ~name:"w1" ~n:7 W.Prefix_sums [| (1, 2.); (3, -2.) |] in
  let s2 = W.of_coefficients ~name:"w2" ~n:7 W.Prefix_sums [| (2, 2.); (5, -2.) |] in
  let check_kept name merged expected =
    let got = W.coefficients merged in
    if Array.length got <> Array.length expected then
      Alcotest.failf "%s: kept %d coefficients, expected %d" name
        (Array.length got) (Array.length expected);
    Array.iteri
      (fun k (i, c) ->
        let gi, gc = got.(k) in
        if gi <> i || bits gc <> bits c then
          Alcotest.failf "%s: slot %d is (%d, %h), expected (%d, %h)" name k gi
            gc i c)
      expected
  in
  check_kept "merge s1 s2" (W.merge s1 s2) [| (1, 2.); (2, 2.) |];
  (* accumulation order must not change the kept set *)
  check_kept "merge s2 s1" (W.merge s2 s1) [| (1, 2.); (2, 2.) |];
  (* exactly-cancelled coefficients are dropped before truncation *)
  let s3 = W.of_coefficients ~name:"w3" ~n:7 W.Prefix_sums [| (1, -2.); (6, 1.) |] in
  check_kept "cancellation" (W.merge s1 s3) [| (3, -2.); (6, 1.) |]

let test_merge_agrees_with_batch () =
  (* With budget >= the number of nonzero coefficients, merge loses
     nothing: it answers like a from-scratch build of the summed data
     (and both are near-exact).  Property-tested over random pairs. *)
  let rng = Rng.create 0xAB1E in
  for case = 1 to 40 do
    let n = if Rng.bool rng then 15 else 31 in
    let a1 = Array.init n (fun _ -> float_of_int (Rng.int rng 10)) in
    let a2 = Array.init n (fun _ -> float_of_int (Rng.int rng 10)) in
    let b = n + 1 in
    let merged = W.merge (W.range_optimal a1 ~b) (W.range_optimal a2 ~b) in
    let batch = W.range_optimal (Array.map2 ( +. ) a1 a2) ~b in
    for a = 1 to n do
      for bb = a to n do
        let label = Printf.sprintf "case %d: [%d,%d]" case a bb in
        check_close ~tol:1e-9 label
          (W.estimate batch ~a ~b:bb)
          (W.estimate merged ~a ~b:bb)
      done
    done
  done

let test_merge_associative_up_to_truncation () =
  (* Full budget: association order changes nothing but float rounding.
     The kept index sets must agree exactly; values to 1e-9. *)
  let rng = Rng.create 0x50DA in
  for case = 1 to 25 do
    let n = 15 in
    let arr () = Array.init n (fun _ -> 1. +. float_of_int (Rng.int rng 8)) in
    let b = n + 1 in
    let s1 = W.range_optimal (arr ()) ~b
    and s2 = W.range_optimal (arr ()) ~b
    and s3 = W.range_optimal (arr ()) ~b in
    let l = W.merge (W.merge s1 s2) s3 in
    let r = W.merge s1 (W.merge s2 s3) in
    let li = Array.map fst (W.coefficients l)
    and ri = Array.map fst (W.coefficients r) in
    if li <> ri then Alcotest.failf "case %d: kept index sets differ" case;
    Array.iteri
      (fun k (_, cl) ->
        let _, cr = (W.coefficients r).(k) in
        check_close ~tol:1e-9 (Printf.sprintf "case %d: coeff %d" case k) cl cr)
      (W.coefficients l);
    for a = 1 to n do
      check_close ~tol:1e-9
        (Printf.sprintf "case %d: est [%d,%d]" case a n)
        (W.estimate l ~a ~b:n) (W.estimate r ~a ~b:n)
    done
  done

(* --- histogram merge / refresh ----------------------------------------- *)

let avg_histogram ~name ~buckets data =
  let n = Array.length data in
  let bk = Bucket.equi_width ~n ~buckets in
  let p = Prefix.create data in
  let values =
    Array.init (Bucket.count bk) (fun k ->
        let l, r = Bucket.bounds bk k in
        Prefix.mean p ~a:l ~b:r)
  in
  H.make ~name bk (H.Avg values)

let test_histogram_merge_additive () =
  let rng = Rng.create 0x4157 in
  let n = 64 in
  let d1 = Array.init n (fun _ -> Rng.float rng *. 20.) in
  let d2 = Array.init n (fun _ -> Rng.float rng *. 20.) in
  let h1 = avg_histogram ~name:"h1" ~buckets:5 d1 in
  let h2 = avg_histogram ~name:"h2" ~buckets:7 d2 in
  let m = H.merge h1 h2 in
  (* the common refinement answers exactly like the sum of the inputs *)
  for a = 1 to n do
    for b = a to n do
      check_close ~tol:1e-9
        (Printf.sprintf "merged est [%d,%d]" a b)
        (H.estimate h1 ~a ~b +. H.estimate h2 ~a ~b)
        (H.estimate m ~a ~b)
    done
  done;
  Alcotest.(check string) "bounded name" "h1+merged" (H.name m);
  (* chains keep the name bounded too *)
  let acc = ref m in
  for _ = 1 to 100 do
    acc := H.merge !acc h2
  done;
  Alcotest.(check string) "chained name" "h1+merged" (H.name !acc)

let test_histogram_refresh () =
  let rng = Rng.create 0x5EED in
  let n = 48 in
  let d1 = Array.init n (fun _ -> Rng.float rng *. 10.) in
  let d2 = Array.init n (fun _ -> Rng.float rng *. 10.) in
  let h = avg_histogram ~name:"h" ~buckets:6 d1 in
  let r = H.refresh h (Prefix.create d2) in
  Alcotest.(check string) "refresh keeps the name" (H.name h) (H.name r);
  Alcotest.(check int) "refresh keeps the buckets" (H.buckets h) (H.buckets r);
  let p2 = Prefix.create d2 in
  for k = 0 to H.buckets r - 1 do
    let l, rr = Bucket.bounds (H.bucketing r) k in
    (* over a whole bucket the Avg estimator is exact for the bucket
       mean: a refreshed histogram answers from the new data *)
    check_close ~tol:1e-9
      (Printf.sprintf "bucket %d" k)
      (Prefix.range_sum p2 ~a:l ~b:rr)
      (H.estimate r ~a:l ~b:rr)
  done

let test_core_merge_dispatch () =
  let d1 = Array.init 32 (fun i -> float_of_int (i mod 5)) in
  let d2 = Array.init 32 (fun i -> float_of_int (i mod 3)) in
  let wave d = CS.Wavelet (W.range_optimal d ~b:8) in
  let hist d = CS.Histogram (avg_histogram ~name:"h" ~buckets:4 d) in
  (match CS.merge (wave d1) (wave d2) with
  | CS.Wavelet _ -> ()
  | _ -> Alcotest.fail "wavelet merge changed representation");
  (match CS.merge (hist d1) (hist d2) with
  | CS.Histogram _ -> ()
  | _ -> Alcotest.fail "histogram merge changed representation");
  match CS.merge_result (hist d1) (wave d2) with
  | Error (Error.Invalid_input _) -> ()
  | Ok _ -> Alcotest.fail "cross-representation merge must be refused"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

(* --- the stream: ingest, staleness, refresh ---------------------------- *)

let stream_config =
  {
    Stream.default_config with
    Stream.method_name = "a0";
    budget_words = 64;
    segments = 4;
    stale_threshold = 0.;
  }

(* A from-scratch batch build of the stream's current data under the
   same plan, grants and names — the determinism oracle. *)
let batch_twin t =
  let cfg = Stream.config t in
  let plan = Stream.plan t in
  let grants =
    Seg.uniform_split plan ~method_name:cfg.Stream.method_name
      ~budget_words:cfg.Stream.budget_words
  in
  let data = Stream.data t in
  let syns =
    Array.mapi
      (fun i (lo, hi) ->
        let slice = Array.sub data (lo - 1) (hi - lo + 1) in
        let ds =
          Dataset.of_floats
            ~name:(Printf.sprintf "%s.seg%d" cfg.Stream.entry_prefix i)
            slice
        in
        Builder.build ds ~method_name:cfg.Stream.method_name
          ~budget_words:grants.(i))
      plan.Seg.bounds
  in
  Seg.make (Stream.dataset t) plan syns

let deltas_a = [| (2, 1.5); (3, 0.25); (20, 2.) |]
let deltas_b = [| (40, 0.75); (64, 3.) |]

let test_stream_lifecycle () =
  let ds = Dataset.generate "zipf-64" in
  let t = Stream.create ~config:stream_config ds in
  Alcotest.(check int) "n" 64 (Stream.n t);
  Alcotest.(check int) "segments" 4 (Stream.segments t);
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "A[%d]" (i + 1)) v (Stream.value t (i + 1)))
    (Dataset.values ds);
  (* exact range sums folded on demand from the per-segment values *)
  let p = Dataset.prefix ds in
  for a = 1 to 64 do
    check_close ~tol:1e-12
      (Printf.sprintf "s[%d,64]" a)
      (Prefix.range_sum p ~a ~b:64)
      (data_range_sum t ~a ~b:64)
  done;
  (* a fresh stream answers exactly like the batch build it came from *)
  Alcotest.(check string)
    "fresh stream = batch bytes"
    (Seg.to_string (batch_twin t))
    (Seg.to_string (Stream.synopsis t));
  (* ingest dirties exactly the touched segments *)
  let report = Stream.ingest t deltas_a in
  Alcotest.(check int) "applied" 3 report.Stream.applied;
  Alcotest.(check (list int)) "stale segments" [ 0; 1 ] report.Stream.stale;
  check_bits "dirty mass seg0" 1.75 (Stream.staleness t).(0);
  check_bits "dirty mass seg1" 2. (Stream.staleness t).(1);
  check_bits "updated value" (Dataset.values ds).(1) (Stream.value t 2 -. 1.5);
  (* refresh rebuilds only the dirty segments... *)
  let r = Stream.refresh t in
  Alcotest.(check (list int)) "rebuilt" [ 0; 1 ] r.Stream.rebuilt;
  Alcotest.(check int) "skipped" 2 r.Stream.skipped_clean;
  Alcotest.(check bool) "not expired" false r.Stream.expired;
  Alcotest.(check (list int)) "clean after refresh" [] (Stream.stale_segments t);
  (* ...and the result is bit-identical to the from-scratch batch build *)
  Alcotest.(check string)
    "refreshed stream = batch bytes"
    (Seg.to_string (batch_twin t))
    (Seg.to_string (Stream.synopsis t));
  (* below-threshold deltas stay clean and untouched *)
  let lazy_t =
    Stream.create
      ~config:{ stream_config with Stream.stale_threshold = 10. }
      ds
  in
  ignore (Stream.ingest lazy_t deltas_a);
  Alcotest.(check (list int)) "under threshold" [] (Stream.stale_segments lazy_t);
  (* the per-segment exact totals track the data, but a refresh with
     nothing over threshold must leave every synopsis untouched *)
  let before = Seg.to_string (Stream.synopsis lazy_t) in
  let r = Stream.refresh lazy_t in
  Alcotest.(check (list int)) "nothing rebuilt" [] r.Stream.rebuilt;
  Alcotest.(check int) "all skipped" 4 r.Stream.skipped_clean;
  Alcotest.(check string)
    "synopses untouched" before
    (Seg.to_string (Stream.synopsis lazy_t));
  (* force rebuilds everything, and lands on the batch bytes again *)
  let r = Stream.refresh ~force:true lazy_t in
  Alcotest.(check (list int)) "force rebuilds all" [ 0; 1; 2; 3 ] r.Stream.rebuilt;
  Alcotest.(check string)
    "forced refresh = batch bytes"
    (Seg.to_string (batch_twin lazy_t))
    (Seg.to_string (Stream.synopsis lazy_t))

(* The stale accuracy bound: until refresh a stale segment keeps its
   construction-time estimator while the segment totals track the
   data, so est_stale - truth_new = (est_pre - truth_old) - (the delta
   mass inside the range's boundary parts), and the worst error over
   all n(n+1)/2 ranges may grow by at most the ingested |delta| mass.
   The truth is kept in a shadow array, not read back from the stream;
   the deltas outweigh the pre-ingest error so a sign or scale slip in
   applying them shows. *)
let test_stream_stale_error_bound () =
  let ds = Dataset.generate "zipf-256" in
  let n = Dataset.n ds in
  let config =
    { stream_config with Stream.budget_words = 96; segments = 8 }
  in
  let t = Stream.create ~config ds in
  let max_err truth =
    let est = Seg.estimator (Stream.synopsis t) in
    let worst = ref 0. in
    for a = 1 to n do
      for b = a to n do
        let e = Float.abs (est ~a ~b -. Prefix.range_sum truth ~a ~b) in
        if e > !worst then worst := e
      done
    done;
    !worst
  in
  let pre_err = max_err (Dataset.prefix ds) in
  let rng = Rng.create 0xD17 in
  let deltas = Array.init 96 (fun _ -> (1 + Rng.int rng n, Rng.float rng *. 40.)) in
  ignore (Stream.ingest t deltas);
  let shadow = Array.copy (Dataset.values ds) in
  Array.iter (fun (i, d) -> shadow.(i - 1) <- shadow.(i - 1) +. d) deltas;
  let mass = Array.fold_left (fun acc (_, d) -> acc +. Float.abs d) 0. deltas in
  let stale_err = max_err (Prefix.create shadow) in
  (* float-rounding slack only: the inequality itself is exact *)
  let bound = (pre_err +. mass) *. (1. +. 1e-9) in
  if not (stale_err <= bound) then
    Alcotest.failf "stale max error %.6g > pre-ingest %.6g + |delta| mass %.6g"
      stale_err pre_err mass

let test_stream_refresh_governor () =
  let ds = Dataset.generate "zipf-64" in
  let t = Stream.create ~config:stream_config ds in
  ignore (Stream.ingest t [| (1, 1.); (17, 1.); (33, 1.); (49, 1.) |]);
  Alcotest.(check (list int)) "all stale" [ 0; 1; 2; 3 ] (Stream.stale_segments t);
  (* a 2-poll budget admits exactly one segment boundary *)
  let r = Stream.refresh ~governor:(Governor.create ~poll_budget:2 ()) t in
  Alcotest.(check bool) "expired" true r.Stream.expired;
  Alcotest.(check (list int)) "one segment rebuilt" [ 0 ] r.Stream.rebuilt;
  Alcotest.(check (list int))
    "the rest keep their staleness" [ 1; 2; 3 ] (Stream.stale_segments t);
  (* the next refresh completes the job *)
  let r = Stream.refresh t in
  Alcotest.(check (list int)) "remaining rebuilt" [ 1; 2; 3 ] r.Stream.rebuilt;
  Alcotest.(check string)
    "converges to batch bytes"
    (Seg.to_string (batch_twin t))
    (Seg.to_string (Stream.synopsis t))

let test_stream_ingest_validation () =
  let ds = Dataset.generate "zipf-64" in
  let t = Stream.create ~config:stream_config ds in
  let before = Stream.data t in
  let rejected deltas =
    match Stream.ingest t deltas with
    | exception Error.Rs_error (Error.Invalid_input _) -> ()
    | _ -> Alcotest.fail "expected Invalid_input"
  in
  rejected [| (0, 1.) |];
  rejected [| (65, 1.) |];
  rejected [| (3, Float.nan) |];
  (* a delta that would drive a value negative is refused whole-batch *)
  rejected [| (5, 1.); (7, -1e9) |];
  (* all-or-nothing: nothing was applied, nothing went dirty *)
  Array.iteri
    (fun j v -> check_bits (Printf.sprintf "A[%d] untouched" (j + 1)) v
        (Stream.value t (j + 1)))
    before;
  Alcotest.(check (list int)) "still clean" [] (Stream.stale_segments t)

let test_stream_ingest_seam () =
  let ds = Dataset.generate "zipf-64" in
  let t = Stream.create ~config:stream_config ds in
  Faults.with_faults [ "stream.ingest" ] (fun () ->
      (match Stream.ingest t deltas_a with
      | exception Faults.Injected _ -> ()
      | _ -> Alcotest.fail "expected the injected fault");
      (* tripped before any work: nothing applied *)
      Alcotest.(check (list int)) "clean" [] (Stream.stale_segments t));
  ignore (Stream.ingest t deltas_a);
  Alcotest.(check (list int)) "disarmed ingest lands" [ 0; 1 ]
    (Stream.stale_segments t)

(* --- the stream under a store: WAL durability -------------------------- *)

let apply_expected base deltas =
  let out = Array.copy base in
  Array.iter (fun (i, d) -> out.(i - 1) <- out.(i - 1) +. d) deltas;
  out

let check_data name expected t =
  Array.iteri
    (fun j v ->
      check_bits (Printf.sprintf "%s: A[%d]" name (j + 1)) v
        (Stream.value t (j + 1)))
    expected

let test_stream_resume_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let ds = Dataset.generate "zipf-64" in
  let store = Store.open_dir dir in
  let t = Stream.create ~config:stream_config ~store ds in
  ignore (Stream.ingest t deltas_a);
  ignore (Stream.ingest t deltas_b);
  let expected = apply_expected (apply_expected (Dataset.values ds) deltas_a) deltas_b in
  let live_bytes = Seg.to_string (Stream.synopsis t) in
  (* abandon the in-memory stream: everything acked must survive *)
  let t' =
    match ok_or_fail (Stream.resume (Store.open_dir dir)) with
    | Some t' -> t'
    | None -> Alcotest.fail "no stream manifest after create"
  in
  check_data "resumed" expected t';
  Array.iteri
    (fun i d ->
      check_bits (Printf.sprintf "staleness seg%d" i) d (Stream.staleness t').(i))
    (Stream.staleness t);
  Alcotest.(check string) "synopses survive" live_bytes
    (Seg.to_string (Stream.synopsis t'));
  (* refresh on the resumed stream: manifest checkpointed, WAL drained *)
  ignore (Stream.refresh t');
  let records, dropped = ok_or_fail (Store.wal_load (Store.open_dir dir)) in
  Alcotest.(check int) "WAL compacted" 0 (List.length records);
  Alcotest.(check int) "no torn lines" 0 dropped;
  let t'' =
    match ok_or_fail (Stream.resume (Store.open_dir dir)) with
    | Some t'' -> t''
    | None -> Alcotest.fail "manifest lost by refresh"
  in
  check_data "resumed post-refresh" expected t'';
  Alcotest.(check (list int)) "clean post-refresh" [] (Stream.stale_segments t'');
  Alcotest.(check string)
    "post-refresh = batch bytes"
    (Seg.to_string (batch_twin t''))
    (Seg.to_string (Stream.synopsis t''))

let test_stream_double_delivery () =
  with_tmp_dir @@ fun dir ->
  let ds = Dataset.generate "zipf-64" in
  let store = Store.open_dir dir in
  let t = Stream.create ~config:stream_config ~store ds in
  ignore (Stream.ingest t deltas_a);
  let expected = apply_expected (Dataset.values ds) deltas_a in
  let wal_bytes = read_file (Store.wal_path store) in
  (* refresh checkpoints the manifest and compacts the WAL; a crash
     between the two re-delivers old records — simulate it by putting
     the compacted bytes back *)
  ignore (Stream.refresh t);
  let wal = Store.wal_path store in
  let existing = if Sys.file_exists wal then read_file wal else "" in
  write_file wal (existing ^ wal_bytes);
  let t' =
    match ok_or_fail (Stream.resume (Store.open_dir dir)) with
    | Some t' -> t'
    | None -> Alcotest.fail "manifest missing"
  in
  (* the replayed records are at or below each segment's applied seq:
     the sequence check drops them, so nothing is applied twice *)
  check_data "idempotent replay" expected t';
  Alcotest.(check (list int)) "still clean" [] (Stream.stale_segments t')

(* The compaction/restart seam: refresh compacts the WAL, so a fresh
   process's seq counter restarts from what the log still holds — it
   must be pinned above the manifest's applied seqs or the next acked
   batch replays as "already applied" and vanishes on resume. *)
let test_stream_ingest_after_compaction () =
  with_tmp_dir @@ fun dir ->
  let ds = Dataset.generate "zipf-64" in
  let store = Store.open_dir dir in
  let t = Stream.create ~config:stream_config ~store ds in
  ignore (Stream.ingest t deltas_a);
  ignore (Stream.refresh t);
  (* a brand-new handle on the compacted store, like a restart *)
  let t' =
    match ok_or_fail (Stream.resume (Store.open_dir dir)) with
    | Some t' -> t'
    | None -> Alcotest.fail "manifest missing"
  in
  (* hit the segments refresh just folded: their applied seqs are the
     pre-compaction high-water mark, above anything a naively restarted
     counter would assign *)
  let deltas_c = [| (5, 0.75); (30, 3.) |] in
  ignore (Stream.ingest t' deltas_c);
  let expected =
    apply_expected (apply_expected (Dataset.values ds) deltas_a) deltas_c
  in
  check_data "post-compaction ingest lands" expected t';
  (* and it survives yet another restart: the acked batch must not be
     dropped as already-applied during replay *)
  let t'' =
    match ok_or_fail (Stream.resume (Store.open_dir dir)) with
    | Some t'' -> t''
    | None -> Alcotest.fail "manifest missing after second resume"
  in
  check_data "post-compaction ingest survives restart" expected t'';
  check_bits "staleness survives restart" 0.75 (Stream.staleness t'').(0);
  check_bits "staleness survives restart seg1" 3. (Stream.staleness t'').(1)

let test_stream_torn_wal_tail () =
  with_tmp_dir @@ fun dir ->
  let ds = Dataset.generate "zipf-64" in
  let store = Store.open_dir dir in
  let t = Stream.create ~config:stream_config ~store ds in
  ignore (Stream.ingest t [| (2, 1.5) |]);
  ignore (Stream.ingest t [| (40, 2.25) |]);
  let wal = Store.wal_path store in
  let bytes = read_file wal in
  (* tear the tail mid-record: the torn line must be dropped, the
     intact prefix must replay *)
  write_file wal (String.sub bytes 0 (String.length bytes - 4));
  let records, dropped = ok_or_fail (Store.wal_load (Store.open_dir dir)) in
  Alcotest.(check int) "one torn line dropped" 1 dropped;
  Alcotest.(check int) "the intact record survives" 1 (List.length records);
  let t' =
    match ok_or_fail (Stream.resume (Store.open_dir dir)) with
    | Some t' -> t'
    | None -> Alcotest.fail "manifest missing"
  in
  check_data "prefix replayed"
    (apply_expected (Dataset.values ds) [| (2, 1.5) |])
    t'

let test_stream_manifest_fuzz () =
  with_tmp_dir @@ fun dir ->
  let ds = Dataset.generate "zipf-64" in
  let store = Store.open_dir dir in
  ignore (Stream.create ~config:stream_config ~store ds);
  let path = Store.manifest_path store Store.Stream in
  let pristine = read_file path in
  let body =
    match Store.load_manifest store Store.Stream with
    | Ok (Some body) -> body
    | _ -> Alcotest.fail "no stream manifest"
  in
  (* poisoned values under a valid CRC are corruption too: a NaN mass
     would never go stale again, and a NaN threshold is not bad input *)
  let poison ~key ~field bad =
    String.concat "\n"
      (List.mapi
         (fun i line ->
           match String.split_on_char ' ' line with
           | k :: _ as ws when k = key && (key = "stream" || i = 2) ->
               String.concat " " (List.mapi (fun j w -> if j = field then bad else w) ws)
           | _ -> line)
         (String.split_on_char '\n' body))
  in
  List.iter
    (fun (what, poisoned) ->
      Store.save_manifest store Store.Stream poisoned;
      match Stream.resume (Store.open_dir dir) with
      | Error (Error.Corrupt_checkpoint _) -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e -> Alcotest.failf "%s: wrong error: %s" what (Error.to_string e))
    [
      ("dirty nan", poison ~key:"seg" ~field:5 "nan");
      ("dirty inf", poison ~key:"seg" ~field:5 "inf");
      ("dirty -5", poison ~key:"seg" ~field:5 "-5");
      ("stale_threshold nan", poison ~key:"stream" ~field:5 "nan");
    ];
  (* the unpoisoned body still resumes *)
  Store.save_manifest store Store.Stream body;
  (match Stream.resume (Store.open_dir dir) with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "pristine manifest refused");
  (* flip one byte inside the framed body: the CRC must catch it *)
  let corrupt = Bytes.of_string pristine in
  let mid = String.length pristine / 2 in
  Bytes.set corrupt mid (if Bytes.get corrupt mid = 'x' then 'y' else 'x');
  write_file path (Bytes.to_string corrupt);
  (match Stream.resume (Store.open_dir dir) with
  | Error (Error.Corrupt_checkpoint _) -> ()
  | Ok _ -> Alcotest.fail "corrupt manifest accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  (* a well-framed but semantically broken body is just as corrupt *)
  Store.save_manifest store Store.Stream "stream nonsense\n";
  (match Stream.resume (Store.open_dir dir) with
  | Error (Error.Corrupt_checkpoint _) -> ()
  | Ok _ -> Alcotest.fail "garbage manifest accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  (* quarantine degrades to "no stream", never bricks the store *)
  Store.quarantine_manifest store Store.Stream;
  match ok_or_fail (Stream.resume (Store.open_dir dir)) with
  | None -> ()
  | Some _ -> Alcotest.fail "quarantined manifest still resumed"

(* The PR's acceptance criterion, literally: kill -9 after the ingest
   ack, restart, and every acknowledged delta is still there. *)
let test_stream_kill9_after_ack () =
  with_tmp_dir @@ fun dir ->
  let marker = Filename.concat dir "acked.marker" in
  let ds = Dataset.generate "zipf-64" in
  let store = Store.open_dir dir in
  ignore (Stream.create ~config:stream_config ~store ds);
  let expected = apply_expected (Dataset.values ds) deltas_a in
  (match Unix.fork () with
  | 0 ->
      (* the child is its own process: resume, ingest, mark the ack,
         then die without any cleanup at all *)
      (try
         match Stream.resume (Store.open_dir dir) with
         | Ok (Some t) ->
             ignore (Stream.ingest t deltas_a);
             write_file marker "acked";
             Unix.kill (Unix.getpid ()) Sys.sigkill
         | _ -> ()
       with _ -> ());
      Unix._exit 1
  | pid ->
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | _ -> Alcotest.fail "child did not die by SIGKILL after the ack"));
  Alcotest.(check bool) "the ingest was acked" true (Sys.file_exists marker);
  let t =
    match ok_or_fail (Stream.resume (Store.open_dir dir)) with
    | Some t -> t
    | None -> Alcotest.fail "manifest lost"
  in
  check_data "no acked delta lost" expected t;
  check_bits "staleness replayed" 1.75 (Stream.staleness t).(0);
  check_bits "staleness replayed seg1" 2. (Stream.staleness t).(1)

(* --- serving: the ingest op, stale demotion, restart ------------------- *)

let query_line ?id ?poll_budget ~synopsis ranges =
  P.encode_request
    (P.Query
       {
         id;
         synopsis;
         ranges = Array.of_list ranges;
         deadline_ms = None;
         poll_budget;
         attempt = 1;
       })

let ingest_line ?id ~synopsis deltas =
  P.encode_request (P.Ingest { id; synopsis; deltas })

type answer = {
  rung : P.rung;
  estimates : float array;
  rmse_bound : float option;
  a_stale : bool;
}

let expect_answers line =
  match P.decode_response line with
  | Ok (P.Answers { rung; estimates; rmse_bound; stale; _ }) ->
      { rung; estimates; rmse_bound; a_stale = stale }
  | Ok _ -> Alcotest.failf "expected an answer, got %S" line
  | Error e -> Alcotest.failf "undecodable response %S: %s" line e

let expect_ingested line =
  match P.decode_response line with
  | Ok (P.Ingested { applied; dirty; stale; _ }) -> (applied, dirty, stale)
  | Ok _ -> Alcotest.failf "expected an ingest ack, got %S" line
  | Error e -> Alcotest.failf "undecodable response %S: %s" line e

let expect_refused line =
  match P.decode_response line with
  | Ok (P.Refused { refusal; _ }) -> refusal
  | Ok _ -> Alcotest.failf "expected a refusal, got %S" line
  | Error e -> Alcotest.failf "undecodable response %S: %s" line e

let test_protocol_ingest_roundtrip () =
  let reqs =
    [
      P.Ingest { id = Some "i1"; synopsis = "stream"; deltas = [| (3, 1.5); (40, -0.25) |] };
      P.Ingest { id = None; synopsis = "s"; deltas = [||] };
    ]
  in
  List.iter
    (fun r ->
      match P.decode_request (P.encode_request r) with
      | Ok r' when r = r' -> ()
      | Ok _ -> Alcotest.failf "ingest round-trip changed %s" (P.encode_request r)
      | Error e -> Alcotest.failf "ingest round-trip failed: %s" e)
    reqs;
  let bad line =
    match P.decode_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  bad "{\"op\":\"ingest\",\"synopsis\":\"s\"}";
  bad "{\"op\":\"ingest\",\"deltas\":[[1,1]]}";
  bad "{\"op\":\"ingest\",\"synopsis\":\"s\",\"deltas\":[[1.5,1]]}";
  bad "{\"op\":\"ingest\",\"synopsis\":\"s\",\"deltas\":[[1]]}"

let with_stream_server dir f =
  let ds = Dataset.generate "zipf-64" in
  let store = Store.open_dir dir in
  ignore (Stream.create ~config:stream_config ~store ds);
  (* a dataset matching the segment width attaches an RMSE bound to
     every segment entry — what the demotion must suppress *)
  let seg0 = Array.sub (Dataset.values ds) 0 16 in
  let config =
    {
      (Server.default_config ~store_dir:dir) with
      Server.dataset = Some (Dataset.of_floats ~name:"seg-width" seg0);
    }
  in
  let server = ok_or_fail (Server.create config) in
  Fun.protect ~finally:(fun () -> Server.close server) (fun () -> f server ds)

let test_serve_ingest_and_demotion () =
  with_tmp_dir @@ fun dir ->
  with_stream_server dir @@ fun server _ds ->
  Alcotest.(check bool) "stream resumed" true (Server.stream server <> None);
  let q1 = [ (1, 8); (9, 16) ] in
  let fresh = expect_answers (Server.handle_line server (query_line ~synopsis:"stream.seg0" q1)) in
  Alcotest.(check bool) "fresh: exact" true (fresh.rung = P.Exact);
  Alcotest.(check bool) "fresh: not stale" false fresh.a_stale;
  Alcotest.(check bool) "fresh: bound attached" true (fresh.rmse_bound <> None);
  (* the ack reports the batch and the staleness it caused *)
  let applied, dirty, stale =
    expect_ingested
      (Server.handle_line server (ingest_line ~synopsis:"stream" [| (2, 1.5) |]))
  in
  Alcotest.(check int) "ack: applied" 1 applied;
  check_bits "ack: dirty" 1.5 dirty;
  Alcotest.(check bool) "ack: stale" true stale;
  (* the same query is now demoted: flagged, bound suppressed *)
  let demoted = expect_answers (Server.handle_line server (query_line ~synopsis:"stream.seg0" q1)) in
  Alcotest.(check bool) "demoted: still exact rung" true (demoted.rung = P.Exact);
  Alcotest.(check bool) "demoted: flagged" true demoted.a_stale;
  Alcotest.(check bool)
    "demoted: pre-update RMSE bound suppressed" true (demoted.rmse_bound = None);
  (* the stale floor replays the PRE-ingest exact answer (cached while
     fresh), unflagged — the rung label carries the caveat *)
  let replay =
    expect_answers
      (Server.handle_line server (query_line ~poll_budget:1 ~synopsis:"stream.seg0" q1))
  in
  Alcotest.(check bool) "replay: stale rung" true (replay.rung = P.Stale);
  Alcotest.(check bool) "replay: unflagged" false replay.a_stale;
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "replay est %d" i) v replay.estimates.(i))
    fresh.estimates;
  (* a query first answered while stale must NOT have fed the cache *)
  let q2 = [ (3, 5) ] in
  let stale_first = expect_answers (Server.handle_line server (query_line ~synopsis:"stream.seg0" q2)) in
  Alcotest.(check bool) "stale-first: flagged" true stale_first.a_stale;
  let refusal =
    expect_refused
      (Server.handle_line server (query_line ~poll_budget:1 ~synopsis:"stream.seg0" q2))
  in
  Alcotest.(check bool)
    "stale answers never feed the cache" true (refusal = P.Deadline);
  (* untouched segments keep serving undemoted *)
  let other = expect_answers (Server.handle_line server (query_line ~synopsis:"stream.seg1" [ (1, 16) ])) in
  Alcotest.(check bool) "seg1: not stale" false other.a_stale;
  Alcotest.(check bool) "seg1: bound kept" true (other.rmse_bound <> None);
  (* ingest refusals: unknown target, invalid batch *)
  Alcotest.(check bool)
    "unknown target refused" true
    (expect_refused (Server.handle_line server (ingest_line ~synopsis:"nope" [| (1, 1.) |]))
     = P.Unknown_synopsis);
  Alcotest.(check bool)
    "invalid batch refused" true
    (expect_refused
       (Server.handle_line server (ingest_line ~synopsis:"stream" [| (1, -1e9) |]))
     = P.Bad_request);
  (* draining refuses ingests like queries *)
  ignore (Server.handle_line server (P.encode_request P.Shutdown));
  Alcotest.(check bool)
    "draining refuses ingest" true
    (expect_refused (Server.handle_line server (ingest_line ~synopsis:"stream" [| (1, 1.) |]))
     = P.Shutting_down)

let test_serve_ingest_survives_restart () =
  with_tmp_dir @@ fun dir ->
  let estimates_before =
    with_stream_server dir @@ fun server _ds ->
    ignore
      (expect_ingested
         (Server.handle_line server (ingest_line ~synopsis:"stream" [| (2, 1.5); (20, 2.) |])));
    let a = expect_answers (Server.handle_line server (query_line ~synopsis:"stream.seg0" [ (1, 16) ])) in
    Alcotest.(check bool) "flagged before restart" true a.a_stale;
    a.estimates
  in
  (* a brand-new daemon on the same store re-derives the staleness from
     the WAL: acked ingest mass is never forgotten by a restart *)
  let config = Server.default_config ~store_dir:dir in
  let server = ok_or_fail (Server.create config) in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  let a = expect_answers (Server.handle_line server (query_line ~synopsis:"stream.seg0" [ (1, 16) ])) in
  Alcotest.(check bool) "still flagged after restart" true a.a_stale;
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "restart est %d" i) v a.estimates.(i))
    estimates_before;
  (* refresh out of band (the rebuild path), then hot reload: the new
     generation serves the rebuilt segments unflagged *)
  (Rs_util.Metrics.with_enabled @@ fun () ->
   Rs_util.Metrics.reset ();
   (match ok_or_fail (Stream.resume (Store.open_dir dir)) with
   | Some t ->
       let r = Stream.refresh t in
       Alcotest.(check bool) "refresh rebuilt" true (r.Stream.rebuilt <> [])
   | None -> Alcotest.fail "stream lost");
   (match P.decode_response (Server.reload server) with
   | Ok (P.Reloaded { generation; _ }) ->
       Alcotest.(check int) "fresh generation" 2 generation
   | _ -> Alcotest.fail "reload failed");
   (* the out-of-band resume reads its 4 segment entries; the reload's
      resume takes them from the generation it has just decoded *)
   Alcotest.(check int) "store.gets" 4
     (Option.value ~default:0
        (List.assoc_opt "store.gets"
           (Rs_util.Metrics.report ()).Rs_util.Metrics.r_counters)));
  let a = expect_answers (Server.handle_line server (query_line ~synopsis:"stream.seg0" [ (1, 16) ])) in
  Alcotest.(check bool) "rebuilt entry unflagged" false a.a_stale

let test_serve_batch_store_refuses_ingest () =
  with_tmp_dir @@ fun dir ->
  (* a plain (non-stream) store: queries fine, ingest refused *)
  let ds = Dataset.generate "zipf-32" in
  let store = Store.open_dir dir in
  Store.put store ~name:"plain" (Builder.build ds ~method_name:"a0" ~budget_words:16);
  let server = ok_or_fail (Server.create (Server.default_config ~store_dir:dir)) in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  Alcotest.(check bool) "no stream" true (Server.stream server = None);
  let a = expect_answers (Server.handle_line server (query_line ~synopsis:"plain" [ (1, 32) ])) in
  Alcotest.(check bool) "plain query fine" false a.a_stale;
  Alcotest.(check bool)
    "ingest refused" true
    (expect_refused (Server.handle_line server (ingest_line ~synopsis:"plain" [| (1, 1.) |]))
     = P.Unknown_synopsis)

(* --- replay refuses what ingest refuses --------------------------------- *)

(* [Store.wal_append] checks names, not positions or values, so it can
   write a CRC-valid record that [Stream.ingest] would have refused.
   Replay must refuse it as a corrupt log naming the WAL — never an
   array-bounds crash, never a poisoned value — and a daemon on that
   store must degrade to batch-only serving. *)
let check_replay_refused name record =
  with_tmp_dir @@ fun dir ->
  let ds = Dataset.generate "zipf-64" in
  let store = Store.open_dir dir in
  ignore (Stream.create ~config:stream_config ~store ds);
  ignore (Store.wal_append store [ record ]);
  (match Stream.resume (Store.open_dir dir) with
  | Error (Error.Corrupt_checkpoint { path; _ }) ->
      Alcotest.(check string) (name ^ ": names the WAL") (Store.wal_path store) path
  | Ok _ -> Alcotest.failf "%s: the bad record was replayed" name
  | Error e -> Alcotest.failf "%s: wrong error: %s" name (Error.to_string e));
  let server = ok_or_fail (Server.create (Server.default_config ~store_dir:dir)) in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  Alcotest.(check bool) (name ^ ": batch-only serving") true (Server.stream server = None);
  let a = expect_answers (Server.handle_line server (query_line ~synopsis:"stream.seg0" [ (1, 16) ])) in
  Alcotest.(check bool) (name ^ ": entries keep serving") true (a.rung = P.Exact)

let test_replay_refuses_outside_segment () =
  (* position 40 lies in seg2 = [33..48], not in seg0 = [1..16] *)
  check_replay_refused "outside" ("stream.seg0", [| (3, 1.); (40, 1.) |])

let test_replay_refuses_non_finite () =
  (* each delta is finite (the WAL parser refuses non-finite ones);
     their sum overflows *)
  check_replay_refused "non-finite"
    ("stream.seg0", [| (2, Float.max_float); (2, Float.max_float) |])

let test_replay_refuses_negative () =
  check_replay_refused "negative" ("stream.seg1", [| (20, -1e9) |])

(* --- the stream against a plain model ----------------------------------- *)

(* Random ingest / refresh / compaction / resume histories, checked
   after every step against a plain model array (values, data,
   staleness) and against Prefix.Inc fed the same deltas (range sums).
   Every comparison is bit-exact. *)
let check_model name t ~model ~dirty ~incs rng =
  let n = Array.length model in
  let bounds = (Stream.plan t).Seg.bounds in
  Array.iteri
    (fun j v -> check_bits (Printf.sprintf "%s: value %d" name (j + 1)) v (Stream.value t (j + 1)))
    model;
  let data = Stream.data t in
  Array.iteri
    (fun j v -> check_bits (Printf.sprintf "%s: data %d" name (j + 1)) v data.(j))
    model;
  (* [data] is a copy: writing into it leaves the stream alone *)
  data.(0) <- data.(0) +. 1.;
  check_bits (name ^ ": data is a copy") model.(0) (Stream.value t 1);
  Array.iteri
    (fun k d -> check_bits (Printf.sprintf "%s: staleness %d" name k) d (Stream.staleness t).(k))
    dirty;
  let oracle ~a ~b =
    let acc = ref 0. in
    Array.iteri
      (fun k (lo, hi) ->
        let lo' = max a lo and hi' = min b hi in
        if lo' <= hi' then
          acc :=
            !acc +. Prefix.Inc.range_sum incs.(k) ~a:(lo' - lo + 1) ~b:(hi' - lo + 1))
      bounds;
    !acc
  in
  let ranges =
    (1, n)
    :: List.init 6 (fun _ ->
           let a = 1 + Rng.int rng n in
           (a, a + Rng.int rng (n - a + 1)))
  in
  List.iter
    (fun (a, b) ->
      check_bits (Printf.sprintf "%s: range_sum [%d,%d]" name a b) (oracle ~a ~b)
        (data_range_sum t ~a ~b))
    ranges

let check_same_stream name live resumed =
  let a = Stream.data live and b = Stream.data resumed in
  Alcotest.(check int) (name ^ ": n") (Array.length a) (Array.length b);
  Array.iteri (fun j v -> check_bits (Printf.sprintf "%s: value %d" name (j + 1)) v b.(j)) a;
  Array.iteri
    (fun k d -> check_bits (Printf.sprintf "%s: staleness %d" name k) d (Stream.staleness resumed).(k))
    (Stream.staleness live);
  Alcotest.(check string) (name ^ ": synopses")
    (Seg.to_string (Stream.synopsis live))
    (Seg.to_string (Stream.synopsis resumed))

let test_stream_model_twins () =
  let rng = Rng.create 0x5715 in
  for case = 1 to 24 do
    with_tmp_dir @@ fun dir ->
    let segments = 1 + Rng.int rng 8 in
    let width =
      match case with
      | 1 -> 1
      | 2 -> 4096
      | _ -> min 4096 (int_of_float (2. ** (Rng.float rng *. 12.)))
    in
    let n = (width * segments) + if width < 4096 then Rng.int rng segments else 0 in
    let base = Array.init n (fun _ -> Float.round (Rng.float rng *. 50.) +. (Rng.float rng *. 0.5)) in
    let config =
      {
        stream_config with
        Stream.method_name = "equi-width-reopt";
        budget_words = 16 * segments;
        segments;
        stale_threshold = [| 0.; 5.; 1e12 |].(Rng.int rng 3);
      }
    in
    let name = Printf.sprintf "case %d (n=%d, S=%d)" case n segments in
    let t = ref (Stream.create ~config ~store:(Store.open_dir dir) (Dataset.of_floats ~name:"m" base)) in
    let bounds = (Stream.plan !t).Seg.bounds in
    let seg_of i =
      let k = ref 0 in
      while i > snd bounds.(!k) do incr k done;
      !k
    in
    let model = Array.copy base in
    let dirty = Array.make segments 0. in
    let incs = Array.map (fun (lo, hi) -> Prefix.Inc.of_array (Array.sub base (lo - 1) (hi - lo + 1))) bounds in
    for step = 1 to 30 do
      let r = Rng.int rng 100 in
      let what =
        if r < 55 then begin
          let batch =
            Array.init (1 + Rng.int rng 16) (fun _ ->
                let i = 1 + Rng.int rng n in
                let d = (Rng.float rng -. 0.4) *. 10. in
                let d = if model.(i - 1) +. d < 0. then abs_float d else d in
                let k = seg_of i in
                model.(i - 1) <- model.(i - 1) +. d;
                dirty.(k) <- dirty.(k) +. abs_float d;
                Prefix.Inc.add incs.(k) ~i:(i - fst bounds.(k) + 1) ~delta:d;
                (i, d))
          in
          let report = Stream.ingest !t batch in
          Alcotest.(check int) (name ^ ": applied") (Array.length batch) report.Stream.applied;
          "ingest"
        end
        else if r < 75 then begin
          let force = r >= 70 in
          let expected =
            List.filter (fun k -> force || dirty.(k) > config.Stream.stale_threshold)
              (List.init segments Fun.id)
          in
          let report = Stream.refresh ~force !t in
          Alcotest.(check (list int)) (name ^ ": rebuilt") expected report.Stream.rebuilt;
          List.iter (fun k -> dirty.(k) <- 0.) expected;
          if force then
            Alcotest.(check string) (name ^ ": forced refresh = batch bytes")
              (Seg.to_string (batch_twin !t))
              (Seg.to_string (Stream.synopsis !t));
          "refresh"
        end
        else begin
          (* r >= 95 also crashes between the manifest write and the
             compaction: the compacted records come back and replay
             must drop them *)
          if r >= 95 then begin
            let wal = Store.wal_path (Store.open_dir dir) in
            let old = if Sys.file_exists wal then read_file wal else "" in
            let report = Stream.refresh !t in
            List.iter (fun k -> dirty.(k) <- 0.) report.Stream.rebuilt;
            let now = if Sys.file_exists wal then read_file wal else "" in
            write_file wal (now ^ old)
          end;
          let resumed =
            match ok_or_fail (Stream.resume (Store.open_dir dir)) with
            | Some t' -> t'
            | None -> Alcotest.failf "%s: manifest lost" name
          in
          check_same_stream (Printf.sprintf "%s step %d: resumed" name step) !t resumed;
          t := resumed;
          "resume"
        end
      in
      check_model (Printf.sprintf "%s step %d (%s)" name step what) !t ~model ~dirty ~incs rng
    done
  done

(* Ingest costs O(1) per delta: an in-memory ingest of a fixed 16-delta
   batch allocates the same minor words at every segment width.  A
   moment table that refolds the segment's suffix per delta allocates
   in proportion to the width (thousands of words at 64, millions at
   65,536). *)
let test_stream_ingest_alloc_flat () =
  let words width =
    let ds = Dataset.of_floats ~name:"flat" (Array.make width 1.) in
    let config =
      {
        stream_config with
        Stream.method_name = "equi-width-reopt";
        budget_words = 16;
        segments = 1;
      }
    in
    let t = Stream.create ~config ds in
    let batch = Array.init 16 (fun j -> (1 + (j * 7 mod width), 0.5)) in
    ignore (Stream.ingest t batch);
    let before = Gc.minor_words () in
    ignore (Stream.ingest t batch);
    Gc.minor_words () -. before
  in
  let narrow = words 64 and wide = words 65536 in
  if abs_float (wide -. narrow) > 8. then
    Alcotest.failf "ingest allocates %.0f words at width 65536 vs %.0f at 64" wide narrow

let () =
  Alcotest.run "stream"
    [
      ( "prefix-inc",
        [
          Alcotest.test_case "append twin (bit-exact)" `Quick test_inc_append_twin;
          Alcotest.test_case "delta twin (bit-exact)" `Quick test_inc_delta_twin;
          Alcotest.test_case "mixed twin (bit-exact)" `Quick test_inc_mixed_twin;
          Alcotest.test_case "validation" `Quick test_inc_validation;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge-chain name bounded" `Quick
            test_merge_chain_name_bounded;
          Alcotest.test_case "equal-magnitude tie-break" `Quick
            test_merge_tiebreak_fixture;
          Alcotest.test_case "merge agrees with batch build" `Quick
            test_merge_agrees_with_batch;
          Alcotest.test_case "associative up to truncation" `Quick
            test_merge_associative_up_to_truncation;
          Alcotest.test_case "histogram merge additive" `Quick
            test_histogram_merge_additive;
          Alcotest.test_case "histogram refresh" `Quick test_histogram_refresh;
          Alcotest.test_case "core dispatch" `Quick test_core_merge_dispatch;
        ] );
      ( "stream",
        [
          Alcotest.test_case "lifecycle + rebuild determinism" `Quick
            test_stream_lifecycle;
          Alcotest.test_case "refresh governor" `Quick test_stream_refresh_governor;
          Alcotest.test_case "stale error within pre-ingest + |delta| mass" `Quick
            test_stream_stale_error_bound;
          Alcotest.test_case "ingest validation" `Quick
            test_stream_ingest_validation;
          Alcotest.test_case "ingest seam" `Quick test_stream_ingest_seam;
          Alcotest.test_case "random histories vs a plain model (bit-exact)" `Quick
            test_stream_model_twins;
          Alcotest.test_case "ingest allocation is flat in segment width" `Quick
            test_stream_ingest_alloc_flat;
        ] );
      ( "durability",
        [
          Alcotest.test_case "resume round-trip" `Quick test_stream_resume_roundtrip;
          Alcotest.test_case "double delivery is idempotent" `Quick
            test_stream_double_delivery;
          Alcotest.test_case "ingest after compaction" `Quick
            test_stream_ingest_after_compaction;
          Alcotest.test_case "torn WAL tail" `Quick test_stream_torn_wal_tail;
          Alcotest.test_case "manifest fuzz" `Quick test_stream_manifest_fuzz;
          Alcotest.test_case "kill -9 after ack" `Quick test_stream_kill9_after_ack;
          Alcotest.test_case "replay refuses a position outside its segment" `Quick
            test_replay_refuses_outside_segment;
          Alcotest.test_case "replay refuses a non-finite result" `Quick
            test_replay_refuses_non_finite;
          Alcotest.test_case "replay refuses a negative result" `Quick
            test_replay_refuses_negative;
        ] );
      ( "serve",
        [
          Alcotest.test_case "ingest protocol round-trip" `Quick
            test_protocol_ingest_roundtrip;
          Alcotest.test_case "ingest + stale demotion" `Quick
            test_serve_ingest_and_demotion;
          Alcotest.test_case "ingest survives restart" `Quick
            test_serve_ingest_survives_restart;
          Alcotest.test_case "batch store refuses ingest" `Quick
            test_serve_batch_store_refuses_ingest;
        ] );
    ]
