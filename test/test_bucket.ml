module Bucket = Rs_histogram.Bucket
module Rng = Rs_dist.Rng

let test_of_rights () =
  let b = Bucket.of_rights ~n:10 [| 3; 7; 10 |] in
  Alcotest.(check int) "count" 3 (Bucket.count b);
  Alcotest.(check (pair int int)) "bounds 0" (1, 3) (Bucket.bounds b 0);
  Alcotest.(check (pair int int)) "bounds 1" (4, 7) (Bucket.bounds b 1);
  Alcotest.(check (pair int int)) "bounds 2" (8, 10) (Bucket.bounds b 2);
  Alcotest.(check int) "width" 4 (Bucket.width b 1);
  Alcotest.(check int) "bucket_of 1" 0 (Bucket.bucket_of b 1);
  Alcotest.(check int) "bucket_of 3" 0 (Bucket.bucket_of b 3);
  Alcotest.(check int) "bucket_of 4" 1 (Bucket.bucket_of b 4);
  Alcotest.(check int) "bucket_of 10" 2 (Bucket.bucket_of b 10);
  Alcotest.(check int) "left" 4 (Bucket.left b 5);
  Alcotest.(check int) "right" 7 (Bucket.right b 5)

let expect_invalid f =
  try
    f ();
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_validation () =
  expect_invalid (fun () -> ignore (Bucket.of_rights ~n:5 [||]));
  expect_invalid (fun () -> ignore (Bucket.of_rights ~n:5 [| 3 |]));
  expect_invalid (fun () -> ignore (Bucket.of_rights ~n:5 [| 3; 3; 5 |]));
  expect_invalid (fun () -> ignore (Bucket.of_rights ~n:5 [| 0; 5 |]));
  expect_invalid (fun () -> ignore (Bucket.of_rights ~n:5 [| 4; 6 |]))

let test_single_and_singletons () =
  let s = Bucket.single ~n:7 in
  Alcotest.(check int) "single count" 1 (Bucket.count s);
  Alcotest.(check (pair int int)) "single bounds" (1, 7) (Bucket.bounds s 0);
  let t = Bucket.singletons ~n:4 in
  Alcotest.(check int) "singletons count" 4 (Bucket.count t);
  for i = 1 to 4 do
    Alcotest.(check (pair int int)) "singleton bounds" (i, i)
      (Bucket.bounds t (i - 1))
  done

let test_equi_width () =
  for n = 1 to 20 do
    for b = 1 to n do
      let bk = Bucket.equi_width ~n ~buckets:b in
      Alcotest.(check int) "count" b (Bucket.count bk);
      (* Widths differ by at most one. *)
      let wmin = ref max_int and wmax = ref 0 in
      Bucket.iter
        (fun k ~l ~r ->
          ignore k;
          let w = r - l + 1 in
          wmin := min !wmin w;
          wmax := max !wmax w)
        bk;
      Alcotest.(check bool) "balanced" true (!wmax - !wmin <= 1)
    done
  done;
  (* Clamping. *)
  Alcotest.(check int) "clamp hi" 5 (Bucket.count (Bucket.equi_width ~n:5 ~buckets:99));
  Alcotest.(check int) "clamp lo" 1 (Bucket.count (Bucket.equi_width ~n:5 ~buckets:0))

let test_enumerate () =
  let l = Bucket.enumerate ~n:5 ~buckets:3 in
  (* C(4,2) = 6 bucketings. *)
  Alcotest.(check int) "count" 6 (List.length l);
  List.iter (fun b -> Alcotest.(check int) "buckets" 3 (Bucket.count b)) l;
  (* All distinct. *)
  let distinct =
    List.length
      (List.sort_uniq compare (List.map (fun b -> Bucket.rights b) l))
  in
  Alcotest.(check int) "distinct" 6 distinct

let test_enumerate_exhaustive_count () =
  (* C(n−1, b−1) for a few (n, b). *)
  let cases = [ (1, 1, 1); (6, 1, 1); (6, 6, 1); (7, 3, 15); (8, 4, 35) ] in
  List.iter
    (fun (n, b, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "n=%d b=%d" n b)
        expected
        (List.length (Bucket.enumerate ~n ~buckets:b)))
    cases

let test_equal_and_pp () =
  let a = Bucket.of_rights ~n:6 [| 2; 6 |] in
  let b = Bucket.of_rights ~n:6 [| 2; 6 |] in
  let c = Bucket.of_rights ~n:6 [| 3; 6 |] in
  Alcotest.(check bool) "equal" true (Bucket.equal a b);
  Alcotest.(check bool) "not equal" false (Bucket.equal a c);
  let s = Format.asprintf "%a" Bucket.pp a in
  Alcotest.(check bool) "pp" true (Helpers.contains s "1..2")

(* n up to 200 and B from 1 to n (singletons included, by the clamp),
   so the binary search behind [bucket_of] runs at every depth;
   [left]/[right] are checked against [bounds] in the same loop. *)
let prop_bucket_of_consistent =
  Helpers.qtest "bucket_of agrees with bounds"
    QCheck.(pair (int_range 1 200) (int_range 1 200))
    (fun (n, b) ->
      let rng = Rng.create (n * 1000 + b) in
      let b = min b n in
      (* Random bucketing: choose b−1 distinct interior cut points. *)
      let perm = Rng.permutation rng (n - 1) in
      let cuts = Array.sub perm 0 (b - 1) in
      Array.sort compare cuts;
      let rights = Array.append (Array.map (fun c -> c + 1) cuts) [| n |] in
      let bk = Bucket.of_rights ~n rights in
      let ok = ref (Bucket.count bk = b) in
      for i = 1 to n do
        let k = Bucket.bucket_of bk i in
        let l, r = Bucket.bounds bk k in
        if not (l <= i && i <= r && Bucket.left bk i = l && Bucket.right bk i = r)
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "bucket"
    [
      ( "construction",
        [
          Alcotest.test_case "of_rights" `Quick test_of_rights;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "single/singletons" `Quick test_single_and_singletons;
          Alcotest.test_case "equi_width" `Quick test_equi_width;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "n=5 b=3" `Quick test_enumerate;
          Alcotest.test_case "counts" `Quick test_enumerate_exhaustive_count;
        ] );
      ( "misc",
        [
          Alcotest.test_case "equal/pp" `Quick test_equal_and_pp;
          prop_bucket_of_consistent;
        ] );
    ]
