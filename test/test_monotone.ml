(* The monotone divide-and-conquer DP engine (PR 4) and the O(n)
   evaluation fast path, tested against their brute-force twins.

   Engine twins: on sorted inputs every QI-certified cost must give the
   level engine's result back from the D&C engine — same optimal cost
   always, and the same bucketing unless the instance has a genuine tie
   (two bucketings with equal total cost), which float noise may break
   either way; when bucketings differ we therefore re-evaluate both
   under the cost function and require the totals to agree.

   Fast-path twins: Synopsis.sse (prefix/two-sided/piecewise closed
   forms) must equal [sse_sweep] below (the O(n²) enumeration) for
   every synopsis representation the builder can produce.

   Certification matters: a hardcoded instance shows the D&C engine
   mis-optimizing the (non-QI) SAP0 cost by ~3.8%, and the engine rule
   keeping every uncertified method on the level engine. *)

module Prefix = Rs_util.Prefix
module Error = Rs_util.Error
module Governor = Rs_util.Governor
module Rng = Rs_dist.Rng
module Cost = Rs_histogram.Cost
module Dp = Rs_histogram.Dp
module Bucket = Rs_histogram.Bucket
module H = Rs_histogram.Histogram
module W = Rs_wavelet.Synopsis
module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module Synopsis = Rs_core.Synopsis
module Qerr = Rs_query.Error

(* The brute-force SSE: every range enumerated through the estimator. *)
let sse_sweep ds s = Qerr.sse_all_ranges (Dataset.prefix ds) (Synopsis.estimator s)

(* --- sorted-instance generator --- *)

(* Sorted data, both directions, three value profiles (ties-heavy small
   ints, continuous, spiky) — the same families the certification
   campaign used. *)
let sorted_data rng ~n ~kind =
  let d =
    Array.init n (fun _ ->
        match kind mod 3 with
        | 0 -> float_of_int (Rng.int rng 8)
        | 1 -> Rng.float rng *. 100.
        | _ -> if Rng.int rng 6 = 0 then Rng.float rng *. 1000. else Rng.float rng *. 3.)
  in
  Array.sort compare d;
  if kind >= 3 then begin
    let m = Array.length d in
    for i = 0 to (m / 2) - 1 do
      let t = d.(i) in
      d.(i) <- d.(m - 1 - i);
      d.(m - 1 - i) <- t
    done
  end;
  d

let total_of_bucketing cost bk =
  let acc = ref 0. in
  for k = 0 to Bucket.count bk - 1 do
    let l, r = Bucket.bounds bk k in
    acc := !acc +. cost ~l ~r
  done;
  !acc

let certified_costs ctx : (string * (l:int -> r:int -> float)) list =
  [
    ("point-w", Cost.point_range_weighted ctx);
    ("point-u", Cost.point_unweighted ctx);
    ("a0-prefix", Cost.a0_prefix ctx);
  ]

(* One twin case: both engines on one instance, for [solve] and
   [solve_exact_buckets] alike. *)
let twin_case name cost ~n ~buckets =
  List.iter
    (fun (variant, level, mono) ->
      let a : Dp.result = level () and b : Dp.result = mono () in
      let scale = Float.max 1. (abs_float a.Dp.cost) in
      if abs_float (a.Dp.cost -. b.Dp.cost) /. scale > 1e-9 then
        Alcotest.failf "%s %s n=%d B=%d: level cost %.17g <> monotone %.17g"
          name variant n buckets a.Dp.cost b.Dp.cost;
      if a.Dp.bucketing <> b.Dp.bucketing then begin
        (* Must be a genuine tie: both bucketings equally good. *)
        let ta = total_of_bucketing cost a.Dp.bucketing in
        let tb = total_of_bucketing cost b.Dp.bucketing in
        let scale = Float.max 1. (abs_float ta) in
        if abs_float (ta -. tb) /. scale > 1e-9 then
          Alcotest.failf
            "%s %s n=%d B=%d: bucketings differ and are not tied (%.17g vs %.17g)"
            name variant n buckets ta tb
      end)
    [
      ( "solve",
        (fun () -> Dp.solve ~n ~buckets ~cost ()),
        fun () -> Dp.solve_monotone ~n ~buckets ~cost () );
      ( "exact",
        (fun () -> Dp.solve_exact_buckets ~n ~buckets ~cost ()),
        fun () -> Dp.solve_monotone_exact_buckets ~n ~buckets ~cost () );
    ]

(* >= 500 randomized twin instances per certified cost (each instance
   exercises both solve variants). *)
let prop_engine_twin (name, pick) =
  Helpers.qtest ~count:500 (Printf.sprintf "monotone = level (%s, sorted)" name)
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let n = 2 + Rng.int rng 70 in
      let kind = Rng.int rng 6 in
      let data = sorted_data rng ~n ~kind in
      let ctx = Cost.make (Prefix.create data) in
      assert (Cost.data_sorted ctx);
      let cost = pick ctx in
      let buckets = 1 + Rng.int rng 10 in
      twin_case name cost ~n ~buckets;
      true)

let engine_twin_props =
  List.map prop_engine_twin
    [
      ("point-w", fun ctx -> Cost.point_range_weighted ctx);
      ("point-u", fun ctx -> Cost.point_unweighted ctx);
      ("a0-prefix", fun ctx -> Cost.a0_prefix ctx);
    ]

(* Small-n exhaustive-ish twin over the shared datasets, including the
   unsorted ones via an explicit sort. *)
let test_twin_small_datasets () =
  List.iter
    (fun (dname, data) ->
      let data = Array.copy data in
      Array.sort compare data;
      let n = Array.length data in
      let ctx = Cost.make (Prefix.create data) in
      List.iter
        (fun (cname, cost) ->
          for buckets = 1 to min n 6 do
            twin_case (dname ^ "/" ^ cname) cost ~n ~buckets
          done)
        (certified_costs ctx))
    Helpers.small_datasets

(* --- certification is load-bearing ---

   A concrete instance (found by randomized search, pinned here) where
   the D&C recursion on the non-QI SAP0 cost commits to a wrong argmin
   split and returns a ~3.8% worse partition.  This is the direct
   demonstration that the sorted-data certificate table cannot be
   extended to sap0/sap1/a0 — and why Auto keeps them on the level
   engine. *)
let sap0_counterexample =
  [|
    0x1.0c9642878eca7p+2; 0x1.81e2b772121dp-5; 0x1.62e7a220bfab9p-1;
    0x1.a901c2bd55e85p+1; 0x1.73ee33733f658p+6; 0x1.1a83a0d0a1789p+2;
    0x1.37ec0b4d2533dp+1; 0x1.38134b68a9242p+2; 0x1.0d04ecf3c97cp+2;
    0x1.8086425207b24p+1; 0x1.ca96f8188863ep+9; 0x1.5c5a34f608434p-2;
    0x1.f7ce03d25431bp+1; 0x1.6b15a97131fe3p+9; 0x1.4c399187f15f4p+1;
    0x1.51b20e386d7a5p+1; 0x1.b4af59b56d389p+0; 0x1.7f1d22e1a9271p+5;
    0x1.6ea78f71833fap+0; 0x1.30d47c1d98b8ap+0; 0x1.c0d39eb8c43a7p+8;
    0x1.1765b183a5b2ep+1; 0x1.7b0677746eeddp+0; 0x1.d16e27a96ff3p+0;
    0x1.1568f9299d80ep-1;
  |]

let test_non_qi_cost_misoptimizes () =
  let n = Array.length sap0_counterexample in
  let ctx = Cost.make (Prefix.create sap0_counterexample) in
  let cost = Cost.sap0_bucket ctx in
  let level = Dp.solve ~n ~buckets:3 ~cost () in
  let mono = Dp.solve_monotone ~n ~buckets:3 ~cost () in
  if mono.Dp.cost <= level.Dp.cost *. (1. +. 1e-6) then
    Alcotest.failf
      "expected the D&C engine to mis-optimize sap0 here (level %.17g, mono %.17g)"
      level.Dp.cost mono.Dp.cost;
  (* The D&C result is still a real partition — just not the optimal
     one; its reported cost must at least be its own partition's cost. *)
  Helpers.check_close ~tol:1e-9 "mono self-consistent"
    (total_of_bucketing cost mono.Dp.bucketing)
    mono.Dp.cost

(* SAP1's cost violates the QI *on sorted data* — the (n−r)/(l−1)
   endpoint weights break it, so sortedness is not a valid certificate
   for it (unlike the point costs and a0_prefix).  On sorted-zipf-1023
   the D&C engine commits to a boundary one off from the optimum and
   lands ~4.5e-5 rel worse; this test pins that fact, which is why
   [Sap1.build] passes [certified:false]. *)
let test_sap1_sorted_misoptimizes () =
  let ds = Dataset.generate "sorted-zipf-1023" in
  let p = Dataset.prefix ds in
  let ctx = Cost.make p in
  assert (Cost.data_sorted ctx);
  let cost = Cost.sap1_bucket ctx in
  let n = Rs_util.Prefix.n p in
  let level = Dp.solve ~n ~buckets:12 ~cost () in
  let mono = Dp.solve_monotone ~n ~buckets:12 ~cost () in
  if mono.Dp.cost <= level.Dp.cost *. (1. +. 1e-8) then
    Alcotest.failf
      "expected the D&C engine to mis-optimize sap1 on sorted data (level \
       %.17g, mono %.17g)"
      level.Dp.cost mono.Dp.cost;
  Helpers.check_close ~tol:1e-9 "mono self-consistent"
    (total_of_bucketing cost mono.Dp.bucketing)
    mono.Dp.cost

(* --- dispatch: the input picks the engine, never [jobs] --- *)

let test_use_monotone () =
  Alcotest.(check bool) "level never" false
    (Dp.use_monotone ~engine:Dp.Level ~certified:true);
  Alcotest.(check bool) "auto certified" true
    (Dp.use_monotone ~engine:Dp.Auto ~certified:true);
  Alcotest.(check bool) "auto uncertified" false
    (Dp.use_monotone ~engine:Dp.Auto ~certified:false);
  (* Through the method builders at jobs > 1 on sorted data: the
     certified point cost runs (and delivers), the uncertified SAP1
     cost stays on the level engine.  SAP0 and A0 take no engine: they
     call the level engine directly. *)
  let rng = Rng.create 42 in
  let p = Prefix.create (sorted_data rng ~n:32 ~kind:1) in
  let h = Rs_histogram.Vopt.build ~jobs:2 p ~buckets:4 in
  Alcotest.(check int) "point-opt delivers at jobs=2" 4 (H.buckets h);
  List.iter
    (fun (name, build) ->
      let auto : H.t = build Dp.Auto and level : H.t = build Dp.Level in
      if H.bucketing auto <> H.bucketing level then
        Alcotest.failf "%s: auto left the level engine on sorted data" name)
    [ ("sap1", fun engine -> Rs_histogram.Sap1.build ~engine ~jobs:2 p ~buckets:4) ]

(* Auto on an unsorted input must fall back to the level engine for
   every method — bit-identical synopses. *)
let prop_auto_fallback_unsorted =
  Helpers.qtest ~count:120 "auto = level on unsorted inputs"
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create (seed + 7) in
      let n = 8 + Rng.int rng 40 in
      (* Interior spike: reliably unsorted. *)
      let data =
        Array.init n (fun i ->
            if i = n / 2 then 1000. else float_of_int (Rng.int rng 10))
      in
      let p = Prefix.create data in
      let buckets = 1 + Rng.int rng 6 in
      assert (not (Cost.data_sorted (Cost.make p)));
      List.for_all
        (fun build ->
          let a : H.t = build Dp.Auto p ~buckets in
          let b : H.t = build Dp.Level p ~buckets in
          H.bucketing a = H.bucketing b)
        [
          (fun engine p ~buckets -> Rs_histogram.Vopt.build ~engine p ~buckets);
          (fun engine p ~buckets -> Rs_histogram.Sap1.build ~engine p ~buckets);
          (fun engine p ~buckets ->
            Rs_histogram.Prefix_opt.build ~engine p ~buckets);
        ])

(* Auto on a sorted input takes the monotone engine for certified
   methods; the synopsis must match the level engine's. *)
let prop_auto_upgrade_sorted =
  Helpers.qtest ~count:200 "auto = level on sorted inputs (certified methods)"
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create (seed + 13) in
      let n = 8 + Rng.int rng 50 in
      let data = sorted_data rng ~n ~kind:(Rng.int rng 6) in
      let p = Prefix.create data in
      let buckets = 1 + Rng.int rng 8 in
      List.for_all
        (fun (name, build) ->
          let a : H.t = build Dp.Auto p ~buckets in
          let b : H.t = build Dp.Level p ~buckets in
          if H.bucketing a = H.bucketing b then true
          else begin
            (* allow only genuine cost ties, as in the raw-engine twin *)
            let ctx = Cost.make p in
            let cost =
              match name with
              | "vopt" -> Cost.point_range_weighted ctx
              | _ -> Cost.a0_prefix ctx
            in
            Helpers.close ~tol:1e-9
              (total_of_bucketing cost (H.bucketing a))
              (total_of_bucketing cost (H.bucketing b))
          end)
        [
          ("vopt", fun engine p ~buckets -> Rs_histogram.Vopt.build ~engine p ~buckets);
          ("prefix-opt", fun engine p ~buckets ->
            Rs_histogram.Prefix_opt.build ~engine p ~buckets);
        ])

let check_builder_error what r =
  match r with
  | Error (Error.Invalid_input _) -> ()
  | Error e ->
      Alcotest.failf "%s: expected Invalid_input, got %s" what (Error.to_string e)
  | Ok _ -> Alcotest.failf "%s: expected Invalid_input, got Ok" what

(* The builder's remaining guard on the interval-DP methods: only
   opt-a checkpoints, so a checkpointed v-optimal build is refused
   (no Dp engine writes snapshots).
   Unguarded, a sorted v-optimal build at jobs = 2 runs the monotone
   engine and saves the same bytes as at jobs = 1. *)
let test_builder_guards () =
  let ds = Dataset.generate "sorted-zipf-64" in
  let dir = Filename.temp_file "rs_monotone" "" in
  Sys.remove dir;
  check_builder_error "v-optimal + checkpoint"
    (Builder.build_result ~checkpoint_path:(Filename.concat dir "x.ckpt") ds
       ~method_name:"v-optimal" ~budget_words:16);
  let bytes jobs =
    match
      Builder.build_result
        ~options:{ Builder.default_options with Builder.jobs }
        ds ~method_name:"v-optimal" ~budget_words:16
    with
    | Ok { Builder.synopsis; _ } ->
        Alcotest.(check string) "name" "v-optimal" (Synopsis.name synopsis);
        Rs_core.Codec.to_string synopsis
    | Error e -> Alcotest.failf "v-optimal at jobs=%d: %s" jobs (Error.to_string e)
  in
  Alcotest.(check string) "jobs=2 bytes = jobs=1 bytes" (bytes 1) (bytes 2)

(* The monotone engine respects the governor via Governor.check. *)
let test_monotone_deadline () =
  let rng = Rng.create 77 in
  let data = sorted_data rng ~n:400 ~kind:1 in
  let ctx = Cost.make (Prefix.create data) in
  let governor = Governor.create ~deadline:1e-9 () in
  match
    Dp.solve_monotone ~governor ~stage:"mono-test" ~n:400 ~buckets:12
      ~cost:(Cost.point_unweighted ctx) ()
  with
  | exception Governor.Deadline_exceeded { stage; _ } ->
      Alcotest.(check string) "stage" "mono-test" stage
  | _ -> Alcotest.fail "expected Deadline_exceeded from an expired governor"

(* --- evaluation fast path: closed forms = O(n²) sweep --- *)

let fastpath_methods =
  [
    "naive"; "equi-width"; "equi-depth"; "max-diff"; "point-opt"; "v-optimal";
    "a0"; "prefix-opt"; "sap0"; "sap1"; "opt-a"; "opt-a-rounded"; "a0-reopt";
    "equi-width-reopt"; "point-opt-reopt"; "topbb"; "topbb-rw";
    "wave-range-opt"; "wave-aa";
  ]

let prop_fastpath_equals_sweep =
  Helpers.qtest ~count:40 "Synopsis.sse = sse_sweep for every method"
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create (seed + 3) in
      let n = 8 + Rng.int rng 48 in
      let data = Array.init n (fun _ -> float_of_int (Rng.int rng 50)) in
      let ds = Dataset.of_floats ~name:"fastpath" data in
      let budget = 4 + Rng.int rng 20 in
      List.for_all
        (fun m ->
          match Builder.build_result ds ~method_name:m ~budget_words:budget with
          | Error e ->
              Alcotest.failf "%s: %s" m (Error.to_string e)
          | Ok { Builder.synopsis; _ } ->
              let fast = Synopsis.sse ds synopsis in
              let slow = sse_sweep ds synopsis in
              let ok = Helpers.close ~tol:1e-8 fast slow in
              if not ok then
                Printf.eprintf "%s: fast %.17g sweep %.17g\n" m fast slow;
              ok)
        fastpath_methods)

(* The raw closed forms, against direct enumeration on tiny inputs. *)
let prop_two_sided_form =
  Helpers.qtest ~count:300 "sse_two_sided_form = enumeration"
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create (seed + 5) in
      let n = 1 + Rng.int rng 20 in
      let p = Prefix.create (Array.init n (fun _ -> Rng.float rng *. 10.)) in
      let right = Array.init (n + 1) (fun _ -> Rng.float rng *. 30.) in
      let left = Array.init (n + 1) (fun _ -> Rng.float rng *. 30.) in
      let est ~a ~b = right.(b) -. left.(a - 1) in
      Helpers.close ~tol:1e-8
        (Qerr.sse_two_sided_form p ~right ~left)
        (Qerr.sse_all_ranges p est))

let prop_piecewise_form =
  Helpers.qtest ~count:300 "sse_piecewise_form = enumeration"
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create (seed + 11) in
      let n = 2 + Rng.int rng 20 in
      let p = Prefix.create (Array.init n (fun _ -> Rng.float rng *. 10.)) in
      let right = Array.init (n + 1) (fun _ -> Rng.float rng *. 30.) in
      let left = Array.init (n + 1) (fun _ -> Rng.float rng *. 30.) in
      (* random partition of [1, n] into windows with random values *)
      let cuts = ref [ n ] and i = ref n in
      while !i > 1 do
        if Rng.int rng 3 = 0 then cuts := (!i - 1) :: !cuts;
        decr i
      done;
      let windows =
        let lo = ref 1 in
        List.map
          (fun hi ->
            let w = (!lo, hi, Rng.float rng *. 5.) in
            lo := hi + 1;
            w)
          !cuts
        |> Array.of_list
      in
      let bucket_of t =
        let k = ref (-1) in
        Array.iteri (fun j (l, r, _) -> if t >= l && t <= r then k := j) windows;
        !k
      in
      let est ~a ~b =
        if bucket_of a = bucket_of b then
          let _, _, v = windows.(bucket_of a) in
          float_of_int (b - a + 1) *. v
        else right.(b) -. left.(a - 1)
      in
      Helpers.close ~tol:1e-8
        (Qerr.sse_piecewise_form p ~right ~left ~buckets:windows)
        (Qerr.sse_all_ranges p est))

(* Histogram lowerings answer exactly like Histogram.estimate. *)
let prop_lowering_matches_estimate =
  Helpers.qtest ~count:150 "lowering = estimate, per query"
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create (seed + 17) in
      let n = 4 + Rng.int rng 28 in
      let data = Array.init n (fun _ -> float_of_int (Rng.int rng 30)) in
      let p = Prefix.create data in
      let buckets = 1 + Rng.int rng 6 in
      let hists =
        [
          Rs_histogram.Vopt.build p ~buckets;
          Rs_histogram.Sap0.build p ~buckets;
          Rs_histogram.Sap1.build p ~buckets;
          Rs_histogram.Wsap0.build p
            (Rs_histogram.Wsap0.recency_weights ~n ~half_life:8.)
            ~buckets;
        ]
      in
      List.for_all
        (fun h ->
          match H.lowering h with
          | H.Opaque -> Alcotest.failf "%s: unexpectedly opaque" (H.name h)
          | H.Prefix_form d ->
              let ok = ref true in
              for a = 1 to n do
                for b = a to n do
                  if
                    not
                      (Helpers.close ~tol:1e-8 (H.estimate h ~a ~b)
                         (d.(b) -. d.(a - 1)))
                  then ok := false
                done
              done;
              !ok
          | H.Piecewise_form { right; left; windows } ->
              let bucket_of t =
                let k = ref (-1) in
                Array.iteri
                  (fun j (l, r, _) -> if t >= l && t <= r then k := j)
                  windows;
                !k
              in
              let ok = ref true in
              for a = 1 to n do
                for b = a to n do
                  let lowered =
                    if bucket_of a = bucket_of b then
                      let _, _, v = windows.(bucket_of a) in
                      float_of_int (b - a + 1) *. v
                    else right.(b) -. left.(a - 1)
                  in
                  if not (Helpers.close ~tol:1e-8 (H.estimate h ~a ~b) lowered)
                  then ok := false
                done
              done;
              !ok)
        hists)

let test_rounded_is_opaque () =
  let p = Prefix.create [| 1.; 4.; 2.; 8.; 5.; 7. |] in
  let h = Rs_histogram.Vopt.build p ~buckets:2 in
  let rounded = H.make ~rounded:true ~name:"r" (H.bucketing h) (H.repr h) in
  (match H.lowering rounded with
  | H.Opaque -> ()
  | _ -> Alcotest.fail "rounded histogram must be Opaque");
  Alcotest.(check bool)
    "no prefix form" false
    (Synopsis.prefix_form (Synopsis.Histogram rounded));
  (* and the dispatch still measures it correctly, via the sweep *)
  let ds = Dataset.of_floats [| 1.; 4.; 2.; 8.; 5.; 7. |] in
  Helpers.check_close ~tol:1e-9 "opaque sse"
    (sse_sweep ds (Synopsis.Histogram rounded))
    (Synopsis.sse ds (Synopsis.Histogram rounded))

let test_prefix_vector_surface () =
  let ds = Dataset.generate "zipf-64" in
  let get m =
    match Builder.build_result ds ~method_name:m ~budget_words:16 with
    | Ok { Builder.synopsis; _ } -> synopsis
    | Error e -> Alcotest.failf "%s: %s" m (Error.to_string e)
  in
  let p = Dataset.prefix ds in
  (* The one prefix vector every answer is a difference of, read off
     the lowering — [None] for SAP and two-sided representations. *)
  let prefix_of = function
    | Synopsis.Histogram h -> (
        match H.lowering h with H.Prefix_form d -> Some d | _ -> None)
    | Synopsis.Wavelet w -> (
        match W.prefix_hat_left w with
        | None -> Some (W.prefix_hat w)
        | Some _ -> None)
  in
  (* Avg histograms and shared-prefix wavelets lower to a vector whose
     prefix-form SSE matches the sweep, and [Synopsis.prefix_form]
     agrees; SAP and two-sided do not. *)
  List.iter
    (fun m ->
      let syn = get m in
      if not (Synopsis.prefix_form syn) then
        Alcotest.failf "%s: expected prefix_form" m;
      match prefix_of syn with
      | None -> Alcotest.failf "%s: expected a prefix vector" m
      | Some d ->
          Helpers.check_close ~tol:1e-8
            (m ^ " prefix vector")
            (sse_sweep ds syn)
            (Qerr.sse_prefix_form p d))
    (* opt-a-rounded rounds its DP value grid, not its answers, so its
       output is a plain Avg histogram and keeps the vector *)
    [ "v-optimal"; "equi-width"; "opt-a"; "opt-a-rounded"; "wave-range-opt";
      "topbb" ];
  List.iter
    (fun m ->
      let syn = get m in
      if prefix_of syn <> None || Synopsis.prefix_form syn then
        Alcotest.failf "%s: unexpected prefix vector" m)
    [ "sap0"; "sap1"; "wave-aa" ]

(* --- kernel allocation discipline ---

   The level DP's hot state lives in flat Tabs (lib/histogram/dp.ml):
   the e/parent matrices are Bigarray blocks the minor GC never scans,
   and the running best of a cell lives in the cell itself.  With a
   cost closure that returns a captured (pre-boxed) float — so the cost
   calls themselves allocate nothing — a whole solve must allocate O(1)
   minor words per DP row: a per-transition or per-cell allocation in
   the kernel would show up as O(n²·B) words and trip the budget by two
   orders of magnitude.  Governed builds take the same tiled sweep, so
   the gate covers them too (the governor's per-cell poll included). *)
let test_dp_solve_allocates_o1_per_row () =
  let n = 256 and buckets = 4 in
  let z = 0.5 in
  let cost ~l:_ ~r:_ = z in
  let rows =
    let r = ref 0 in
    for k = 1 to buckets do
      r := !r + (n - k + 1)
    done;
    !r
  in
  (* Generous constants: Bigarray handles, the bucketing result and
     alcotest noise fit many times over, while one boxed float per
     transition alone would cost ~260k words here. *)
  let budget = 20_000. +. (64. *. float_of_int rows) in
  List.iter
    (fun (label, governor) ->
      let run () = ignore (Dp.solve ~governor:(governor ()) ~n ~buckets ~cost ()) in
      run () (* warm-up: one-time closure/setup allocations *);
      let before = Gc.minor_words () in
      run ();
      let delta = Gc.minor_words () -. before in
      if delta > budget then
        Alcotest.failf
          "%s Dp.solve allocated %.0f minor words (budget %.0f for %d rows): \
           the kernel is allocating per cell or per transition"
          label delta budget rows)
    [
      ("ungoverned", fun () -> Governor.unlimited);
      ("governed", fun () -> Governor.create ());
    ]

(* --- multi-tile schedules ---

   Above [dp_tile_j] = 256 candidates the sequential sweep relaxes each
   cell in several j-tiles, the pool relaxes whole cells per chunk and
   the monotone engine relaxes divide-and-conquer windows.  All of them
   run the one transition loop, so at n = 257 (one cell with a second
   tile) and n = 600 (three tiles) every schedule must give the same
   cost bits and bucketing as the ungoverned sequential run. *)
let check_same_bits label (a : Dp.result) (b : Dp.result) =
  if not (Int64.equal (Int64.bits_of_float a.Dp.cost) (Int64.bits_of_float b.Dp.cost))
  then Alcotest.failf "%s: cost %h <> %h" label b.Dp.cost a.Dp.cost;
  Alcotest.(check (array int))
    (label ^ ": rights")
    (Bucket.rights a.Dp.bucketing)
    (Bucket.rights b.Dp.bucketing)

let test_multi_tile_twins () =
  let rng = Rng.create 0x7113 in
  let buckets = 4 in
  List.iter
    (fun n ->
      let inputs =
        [
          ("random", Array.init n (fun _ -> Rng.float rng *. 100.));
          ("sorted", sorted_data rng ~n ~kind:1);
        ]
      in
      List.iter
        (fun (kind, data) ->
          let ctx = Cost.make (Prefix.create data) in
          let point = Cost.point_range_weighted ctx in
          List.iter
            (fun (cname, cost) ->
              let entries =
                [
                  ( "solve",
                    (fun ~governor ~jobs ->
                      Dp.solve ~governor ~jobs ~n ~buckets ~cost ()),
                    fun ~governor ->
                      Dp.solve_monotone ~governor ~n ~buckets ~cost () );
                  ( "exact",
                    (fun ~governor ~jobs ->
                      Dp.solve_exact_buckets ~governor ~jobs ~n ~buckets ~cost ()),
                    fun ~governor ->
                      Dp.solve_monotone_exact_buckets ~governor ~n ~buckets
                        ~cost () );
                ]
              in
              List.iter
                (fun (entry, level, monotone) ->
                  let label mode =
                    Printf.sprintf "n=%d %s %s %s %s" n kind cname entry mode
                  in
                  let base = level ~governor:Governor.unlimited ~jobs:1 in
                  List.iter
                    (fun (mode, governor, jobs) ->
                      check_same_bits (label mode) base
                        (level ~governor:(governor ()) ~jobs))
                    [
                      ("governed", (fun () -> Governor.create ()), 1);
                      ("jobs=2", (fun () -> Governor.unlimited), 2);
                      ("jobs=4", (fun () -> Governor.unlimited), 4);
                      ("governed jobs=2", (fun () -> Governor.create ()), 2);
                    ];
                  (* the point cost is QI-certified on sorted data *)
                  if kind = "sorted" && cname = "point" then begin
                    check_same_bits (label "monotone") base
                      (monotone ~governor:Governor.unlimited);
                    check_same_bits (label "governed monotone") base
                      (monotone ~governor:(Governor.create ()))
                  end)
                entries)
            [ ("point", point); ("a0", Cost.a0_bucket ctx) ])
        inputs)
    [ 257; 600 ]

(* What the monotone engine buys is transitions, so count them: every
   transition is one call of the cost closure.  On a sorted n = 1023
   instance the level engine makes ~B·n²/2 calls and the D&C engine
   O(B·n log n) (5,695,261 against 112,853 at B = 12); pinning the
   ratio is a deterministic stand-in for a speed comparison (no clock,
   so no noise).  The two optima must agree as well. *)
let counted_instance () =
  let ds = Dataset.generate "sorted-zipf-1023" in
  let point = Cost.point_range_weighted (Cost.make (Dataset.prefix ds)) in
  (* atomic: a level engine at jobs > 1 calls it from pool workers *)
  let calls = Atomic.make 0 in
  let cost ~l ~r =
    Atomic.incr calls;
    point ~l ~r
  in
  (Dataset.n ds, cost, calls)

let test_monotone_makes_fewer_cost_calls () =
  let n, cost, calls = counted_instance () and buckets = 12 in
  let count solve =
    Atomic.set calls 0;
    let r : Dp.result = solve () in
    (Atomic.get calls, r.Dp.cost)
  in
  let level, level_cost = count (fun () -> Dp.solve ~n ~buckets ~cost ()) in
  let mono, mono_cost =
    count (fun () -> Dp.solve_monotone ~n ~buckets ~cost ())
  in
  let scale = Float.max 1. (abs_float level_cost) in
  if abs_float (level_cost -. mono_cost) /. scale > 1e-9 then
    Alcotest.failf "level cost %.17g <> monotone %.17g" level_cost mono_cost;
  if mono * 10 > level then
    Alcotest.failf
      "monotone engine made %d cost calls, level engine %d: expected at \
       least 10x fewer"
      mono level

(* The engine rule at jobs > 1: a certified cost runs the monotone
   engine whatever [jobs] is, so [solve_with ~jobs:2] makes exactly the
   monotone engine's cost calls on the instance above — not the level
   engine's 5,695,261. *)
let test_certified_runs_monotone_at_jobs_2 () =
  let n, cost, calls = counted_instance () in
  ignore (Dp.solve_with ~certified:true ~jobs:2 ~n ~buckets:12 ~cost ());
  Alcotest.(check int) "cost calls" 112_853 (Atomic.get calls)

let () =
  Alcotest.run "monotone"
    ([
       ( "engine-twins",
         engine_twin_props
         @ [
             Alcotest.test_case "small datasets, exhaustive B" `Quick
               test_twin_small_datasets;
             Alcotest.test_case "non-QI cost mis-optimizes" `Quick
               test_non_qi_cost_misoptimizes;
             Alcotest.test_case "sap1 mis-optimizes even sorted" `Quick
               test_sap1_sorted_misoptimizes;
           ] );
       ( "dispatch",
         [
           Alcotest.test_case "use_monotone matrix" `Quick test_use_monotone;
           prop_auto_fallback_unsorted;
           prop_auto_upgrade_sorted;
           Alcotest.test_case "builder guards" `Quick test_builder_guards;
           Alcotest.test_case "governed deadline" `Quick test_monotone_deadline;
         ] );
       ( "fast-path",
         [
           prop_fastpath_equals_sweep;
           prop_two_sided_form;
           prop_piecewise_form;
           prop_lowering_matches_estimate;
           Alcotest.test_case "rounded is opaque" `Quick test_rounded_is_opaque;
           Alcotest.test_case "prefix_vector surface" `Quick
             test_prefix_vector_surface;
         ] );
       ( "kernel-alloc",
         [
           Alcotest.test_case "O(1) minor words per row" `Quick
             test_dp_solve_allocates_o1_per_row;
         ] );
       ( "multi-tile",
         [
           Alcotest.test_case "every schedule, same bits" `Quick
             test_multi_tile_twins;
         ] );
       ( "transitions",
         [
           Alcotest.test_case "monotone makes 10x fewer cost calls" `Quick
             test_monotone_makes_fewer_cost_calls;
           Alcotest.test_case "certified runs monotone at jobs 2" `Quick
             test_certified_runs_monotone_at_jobs_2;
         ] );
     ])
