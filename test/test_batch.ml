(* Batch-evaluation twins: Rs_query.Batch plans compiled by
   Synopsis.batch_plan must answer bit-identically to the per-range
   estimate for every representation — the serving layer's
   byte-determinism contract rides on this equivalence.  Every vector
   workload is re-run through the bounds-checked per-range twin
   (Batch.eval_one), which is also the Debug discipline for the
   kernel's unsafe table loads. *)

module S = Rs_core.Synopsis
module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module Batch = Rs_query.Batch
module H = Rs_histogram.Histogram
module Bucket = Rs_histogram.Bucket
module Rng = Rs_dist.Rng

let bits = Int64.bits_of_float

let check_bits what expect got =
  if bits expect <> bits got then
    Alcotest.failf "%s: expected %h, batch answered %h" what expect got

(* The synopsis bestiary: every representation the serving layer can
   hold — Avg (plain and rounded), SAP0, explicit SAP0, SAP1,
   shared-prefix and two-sided wavelets — over both the paper dataset
   and a pseudorandom integral one.  Built once (exact OPT-A dominates
   the suite's time) and shared by every test below. *)
let subjects =
  lazy
    (let rng = Rng.create 0xBA7C4 in
     let random_ds =
       Dataset.of_ints ~name:"batch-rand"
         (Array.init 193 (fun _ -> Rng.int rng 50))
     in
     let built ds =
       List.map
         (fun m -> (Dataset.name ds ^ "/" ^ m, ds, Builder.build ds ~method_name:m ~budget_words:24))
         [
           "point-opt";
           "a0";
           "sap0";
           "sap1";
           "opt-a";
           "opt-a-rounded";
           "equi-width";
           "naive";
           "topbb";
           "wave-range-opt";
           "wave-aa";
         ]
     in
     let explicit =
       (* Sap0_explicit is not reachable through the Builder registry with
          recoverable averages, so construct one directly. *)
       let n = Dataset.n random_ds in
       let bucketing = Bucket.equi_width ~n ~buckets:7 in
       let b = Bucket.count bucketing in
       let arr scale = Array.init b (fun k -> scale *. float_of_int (k + 1) /. 3.) in
       let h =
         H.make ~name:"explicit" bucketing
           (H.Sap0_explicit { avg = arr 1.7; suff = arr 0.9; pref = arr 2.3 })
       in
       [ ("direct/sap0-explicit", random_ds, S.Histogram h);
         ( "direct/sap0-explicit-rounded",
           random_ds,
           S.Histogram
             (H.make ~rounded:true ~name:"explicit-rounded" bucketing
                (H.Sap0_explicit { avg = arr 1.7; suff = arr 0.9; pref = arr 2.3 }))
         );
       ]
     in
     built (Dataset.paper ()) @ built random_ds @ explicit)

let twin_sweep () =
  let workloads = ref 0 in
  List.iter
    (fun (label, ds, syn) ->
      let n = Dataset.n ds in
      let plan = S.batch_plan syn in
      Alcotest.(check int) (label ^ ": plan domain") n (Batch.n plan);
      let rng = Rng.create (Hashtbl.hash label) in
      let check_workload ranges =
        incr workloads;
        let k = Array.length ranges in
        let out = Array.make (max 1 k) nan in
        Batch.eval plan ~ranges ~lo:0 ~hi:(k - 1) ~out;
        Array.iteri
          (fun i (a, b) ->
            let expect = S.estimate syn ~a ~b in
            check_bits
              (Printf.sprintf "%s eval (%d,%d)" label a b)
              expect out.(i);
            check_bits
              (Printf.sprintf "%s eval_one (%d,%d)" label a b)
              expect
              (Batch.eval_one plan ~a ~b))
          ranges
      in
      (* Structured workloads: k = 0, k = 1, full domain, touching and
         edge-hugging ranges. *)
      List.iter check_workload
        [
          [||];
          [| (1, 1) |];
          [| (n, n) |];
          [| (1, n) |];
          [| (1, (n + 1) / 2); ((n + 1) / 2, n) |];
          [| (1, n / 2); ((n / 2) + 1, n) |];
          Array.init (min 8 n) (fun i -> (i + 1, i + 1));
          Array.init (min 8 n) (fun i -> (n - i, n));
        ];
      (* Random workloads, mixed sizes (incl. > one 64-range chunk). *)
      for _ = 1 to 30 do
        let k = Rng.int rng 97 in
        check_workload
          (Array.init k (fun _ ->
               let a = 1 + Rng.int rng n in
               (a, a + Rng.int rng (n - a + 1))))
      done;
      (* Sub-span evaluation: lo/hi restricted to a middle window must
         leave the rest of [out] untouched. *)
      let ranges =
        Array.init 9 (fun _ ->
            let a = 1 + Rng.int rng n in
            (a, a + Rng.int rng (n - a + 1)))
      in
      let out = Array.make 9 nan in
      Batch.eval plan ~ranges ~lo:3 ~hi:5 ~out;
      Array.iteri
        (fun i (a, b) ->
          if i >= 3 && i <= 5 then
            check_bits (label ^ ": sub-span") (S.estimate syn ~a ~b) out.(i)
          else if not (Float.is_nan out.(i)) then
            Alcotest.failf "%s: sub-span eval wrote outside [3,5]" label)
        ranges)
    (Lazy.force subjects);
  if !workloads < 500 then
    Alcotest.failf "only %d twin workloads ran (need >= 500)" !workloads

let prefix_twins () =
  List.iter
    (fun (label, ds, syn) ->
      match S.prefix_vector syn with
      | None -> ()
      | Some prefix ->
          let n = Dataset.n ds in
          let rng = Rng.create 0x9E1 in
          for _ = 1 to 50 do
            let k = Rng.int rng 33 in
            let ranges =
              Array.init k (fun _ ->
                  let a = 1 + Rng.int rng n in
                  (a, a + Rng.int rng (n - a + 1)))
            in
            let out = Array.make (max 1 k) nan in
            Batch.eval_prefix ~prefix ~ranges ~lo:0 ~hi:(k - 1) ~out;
            Array.iteri
              (fun i (a, b) ->
                let expect = prefix.(b) -. prefix.(a - 1) in
                check_bits (label ^ ": eval_prefix") expect out.(i);
                check_bits
                  (label ^ ": eval_prefix_one")
                  expect
                  (Batch.eval_prefix_one ~prefix ~a ~b))
              ranges
          done)
    (Lazy.force subjects)

let rejects () =
  let ds = Dataset.paper () in
  let n = Dataset.n ds in
  let syn = Builder.build ds ~method_name:"point-opt" ~budget_words:24 in
  let plan = S.batch_plan syn in
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  let out = Array.make 4 0. in
  List.iter
    (fun (what, ranges) ->
      expect_invalid what (fun () ->
          Batch.eval plan ~ranges ~lo:0 ~hi:(Array.length ranges - 1) ~out))
    [
      ("a = 0", [| (0, 3) |]);
      ("b < a", [| (5, 4) |]);
      ("b > n", [| (1, n + 1) |]);
      ("late bad range", [| (1, 2); (3, 9); (0, 1) |]);
    ];
  expect_invalid "span lo < 0" (fun () ->
      Batch.eval plan ~ranges:[| (1, 2) |] ~lo:(-1) ~hi:0 ~out);
  expect_invalid "span hi too large" (fun () ->
      Batch.eval plan ~ranges:[| (1, 2) |] ~lo:0 ~hi:1 ~out);
  expect_invalid "out too short" (fun () ->
      Batch.eval plan ~ranges:(Array.make 8 (1, 2)) ~lo:0 ~hi:7
        ~out:(Array.make 4 0.));
  expect_invalid "eval_one bad range" (fun () -> Batch.eval_one plan ~a:0 ~b:1);
  expect_invalid "eval_prefix bad range" (fun () ->
      Batch.eval_prefix
        ~prefix:(Array.make (n + 1) 0.)
        ~ranges:[| (n, n + 1) |]
        ~lo:0 ~hi:0 ~out)

let () =
  Alcotest.run "batch"
    [
      ( "twins",
        [
          Alcotest.test_case "batch-vs-estimate bit twins (>=500 workloads)"
            `Quick twin_sweep;
          Alcotest.test_case "prefix-vector batch twins" `Quick prefix_twins;
          Alcotest.test_case "invalid spans and ranges reject" `Quick rejects;
        ] );
    ]
