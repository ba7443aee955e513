(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation
   (Section 4 and the Section-5 experiment) as quality tables printed to
   stdout, then times the construction algorithms with Bechamel — one
   Test.make per experiment table (F1, C1..C5, T4, S1).

   Flags:
     --quick        small sweeps and a reduced OPT-A state budget
     --no-bechamel  skip the timing benchmarks
     --csv          also print the Figure-1 rows as CSV *)

module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module E = Rs_experiments

let quick = Array.exists (( = ) "--quick") Sys.argv
let no_bechamel = Array.exists (( = ) "--no-bechamel") Sys.argv
let want_csv = Array.exists (( = ) "--csv") Sys.argv

let section title =
  Printf.printf "\n================ %s ================\n\n%!" title

let options =
  if quick then
    { Builder.default_options with Builder.opt_a_max_states = 2_000_000 }
  else Builder.default_options

(* Every claim verdict printed below is also collected here; the harness
   exits nonzero when any fails, so a perf-motivated refactor that
   silently degrades an experiment result breaks CI rather than a
   reader's trust in EXPERIMENTS.md. *)
let failed_claims : E.Claims.verdict list ref = ref []

let record verdicts =
  List.iter
    (fun (v : E.Claims.verdict) ->
      if not v.E.Claims.holds then failed_claims := v :: !failed_claims)
    verdicts;
  verdicts

let quality_tables () =
  let ds = Dataset.paper () in
  Printf.printf "dataset: %s (n=%d, total=%.0f)\n" (Dataset.name ds)
    (Dataset.n ds) (Dataset.total ds);
  let budgets = if quick then [ 8; 16; 24 ] else E.Figure1.default_budgets in
  section "F1: Figure 1 - SSE vs storage (all ranges, log-scale in paper)";
  let rows =
    E.Figure1.run ~options ~budgets ~methods:E.Figure1.extended_methods ds
  in
  print_string (E.Figure1.table rows);
  Printf.printf "\n(construction seconds)\n\n";
  print_string (E.Figure1.timing_table rows);
  if want_csv then begin
    section "F1 rows as CSV";
    print_string (E.Figure1.csv rows)
  end;
  section "C1-C3, C5: the paper's Figure-1 prose claims";
  print_string (E.Claims.table (record (E.Claims.all rows)));
  section "C4: Section 5 re-optimization (A-reopt)";
  let reopt_budgets = if quick then [ 8; 16 ] else [ 8; 16; 24; 32 ] in
  let reopt_rows = E.Reopt_study.run ~options ~budgets:reopt_budgets ds in
  print_string (E.Reopt_study.table reopt_rows);
  Printf.printf "\n";
  print_string (E.Claims.table (record [ E.Reopt_study.verdict reopt_rows ]));
  section "T4: OPT-A-ROUNDED quality/cost trade-off (Theorem 4)";
  let xs = if quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let max_states = if quick then 2_000_000 else 60_000_000 in
  let r_rows = E.Rounding_study.run ~buckets:8 ~xs ~max_states ds in
  print_string (E.Rounding_study.table r_rows);
  Printf.printf "\n";
  print_string (E.Claims.table (record [ E.Rounding_study.verdict r_rows ]));
  section "W1: workload-aware histograms (extension)";
  let w_rows = E.Workload_study.run ds in
  print_string (E.Workload_study.table w_rows);
  Printf.printf "\n";
  print_string (E.Claims.table (record [ E.Workload_study.verdict w_rows ]));
  section "D2: two-dimensional range aggregates (extension, footnote 2)";
  let d2_rows = E.Dim2_study.run () in
  print_string (E.Dim2_study.table d2_rows);
  Printf.printf "\n";
  print_string (E.Claims.table (record [ E.Dim2_study.verdict d2_rows ]));
  section "S1: scalability of the polynomial-time constructions";
  let ns = if quick then [ 127; 255 ] else E.Scalability.default_ns in
  print_string (E.Scalability.table (E.Scalability.run ~ns ()))

(* R1: crash-safety.  Kill a small OPT-A build mid-DP (deterministic
   poll budget, Snapshot-mode governor), resume from its snapshot, and
   require the result to match the uninterrupted run bit-for-bit — the
   durability layer must never change what the DP computes. *)
let durability_check () =
  section "R1: durability - OPT-A checkpoint/resume round-trip";
  let module O = Rs_histogram.Opt_a in
  let module G = Rs_util.Governor in
  let data =
    Array.init 24 (fun i -> float_of_int (((13 * i * i) + (7 * i) + 3) mod 41))
  in
  let p = Rs_util.Prefix.create data in
  let buckets = 5 and key_cap = 200_000 in
  let base = O.build_exact ~key_cap p ~buckets in
  let path = Filename.temp_file "rs_bench" ".ckpt" in
  let interrupted =
    let governor = G.create ~deadline_mode:G.Snapshot ~poll_budget:50 () in
    match O.build_exact ~key_cap ~governor ~checkpoint_path:path p ~buckets with
    | _ -> false
    | exception G.Interrupted _ -> true
  in
  let resumed = O.build_exact ~key_cap ~resume_from:path p ~buckets in
  (try Sys.remove path with Sys_error _ -> ());
  let holds =
    interrupted
    && Float.equal resumed.O.sse base.O.sse
    && resumed.O.states = base.O.states
  in
  let verdict =
    {
      E.Claims.claim_id = "R1";
      description =
        "a kill-and-resume OPT-A build reproduces the uninterrupted result \
         bit-for-bit";
      measured =
        Printf.sprintf "interrupted=%b, sse %.6g vs %.6g, states %d vs %d"
          interrupted resumed.O.sse base.O.sse resumed.O.states base.O.states;
      holds;
    }
  in
  print_string (E.Claims.table (record [ verdict ]))

(* P3: the level-parallel DP engine.  Time exact OPT-A at jobs = 1, 2, 4
   (shared UB seed, so only the level sweep is compared), plus the
   polynomial DP methods through Builder, and write the raw numbers to
   BENCH_PR3.json.  Determinism (identical sse/states across job counts)
   is asserted unconditionally; the speedup half of the verdict is
   waived when the runtime reports fewer than two cores, where a
   parallel win is physically unobservable. *)
let jobs_sweep () =
  section "P3: level-parallel DP jobs sweep";
  let cores = Domain.recommended_domain_count () in
  let max_states = if quick then 2_000_000 else 60_000_000 in
  let buckets = if quick then 6 else 8 in
  (* The exact DP may not fit the state budget on the raw data; escalate
     the Definition-3 rounding grid until the sweep fits (the timed
     engine — and the determinism check — are the same either way). *)
  let rec sweep_at x =
    try (x, E.Scalability.run_jobs ~buckets ~max_states ~x ())
    with Rs_histogram.Opt_a.Too_many_states _ when x < 1024 ->
      sweep_at (x * 4)
  in
  let x, rows = sweep_at (if quick then 8 else 1) in
  if x > 1 then
    Printf.printf "(exact DP on x=%d-rounded data to fit max_states=%d)\n\n" x
      max_states;
  print_string (E.Scalability.jobs_table rows);
  let ds = Dataset.paper () in
  let method_rows =
    List.concat_map
      (fun method_name ->
        let seq = ref 0. in
        List.map
          (fun jobs ->
            let options = { options with Builder.jobs } in
            let _, seconds =
              E.Timing.time (fun () ->
                  Builder.build ~options ds ~method_name ~budget_words:32)
            in
            if jobs = 1 then seq := seconds;
            let speedup = if seconds > 0. then !seq /. seconds else 1. in
            (method_name, jobs, seconds, speedup))
          E.Scalability.default_jobs)
      [ "sap0"; "sap1"; "point-opt" ]
  in
  let oc = open_out "BENCH_PR3.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"recommended_domain_count\": %d,\n" cores;
  Printf.fprintf oc "  \"opt_a_exact\": [\n";
  let last_i = List.length rows - 1 in
  List.iteri
    (fun i (r : E.Scalability.jobs_row) ->
      Printf.fprintf oc
        "    {\"jobs\": %d, \"seconds\": %.6f, \"speedup_vs_jobs1\": %.4f, \
         \"sse\": %.17g, \"states\": %d}%s\n"
        r.jobs r.seconds
        (E.Scalability.speedup_vs_sequential rows r)
        r.sse r.states
        (if i = last_i then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"methods\": [\n";
  let last_i = List.length method_rows - 1 in
  List.iteri
    (fun i (m, jobs, seconds, speedup) ->
      Printf.fprintf oc
        "    {\"method\": %S, \"jobs\": %d, \"seconds\": %.6f, \
         \"speedup_vs_jobs1\": %.4f}%s\n"
        m jobs seconds speedup
        (if i = last_i then "" else ","))
    method_rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\n(wrote BENCH_PR3.json)\n";
  let deterministic =
    match rows with
    | [] -> false
    | r0 :: rest ->
        List.for_all
          (fun (r : E.Scalability.jobs_row) ->
            Float.equal r.sse r0.E.Scalability.sse
            && r.states = r0.E.Scalability.states)
          rest
  in
  let speedup4 =
    match List.find_opt (fun (r : E.Scalability.jobs_row) -> r.jobs = 4) rows with
    | Some r -> E.Scalability.speedup_vs_sequential rows r
    | None -> 1.
  in
  let waived = cores < 2 in
  let holds = deterministic && (waived || speedup4 >= 0.9) in
  let verdict =
    {
      E.Claims.claim_id = "P3";
      description =
        "the level-parallel OPT-A engine returns identical sse/states at \
         every job count, and jobs=4 is no slower than jobs=1 beyond noise";
      measured =
        Printf.sprintf "identical across jobs=%b; jobs=4 speedup %.2fx%s"
          deterministic speedup4
          (if waived then
             Printf.sprintf " (speedup waived: runtime reports %d core(s))"
               cores
           else "");
      holds;
    }
  in
  print_string (E.Claims.table (record [ verdict ]))

(* P4: the monotone divide-and-conquer DP engine and the O(n) SSE fast
   path.  Times each certified Dp-backed method under both engines on
   sorted instances — the certified regime; unsorted inputs stay on the
   level engine by construction, so this is exactly the population the
   monotone engine serves — plus full-SSE measurement through the
   closed forms vs the O(n²) sweep, and writes BENCH_PR4.json.  Result
   equality is asserted unconditionally at every size; the speed half
   of the verdict compares the engines at the largest n and is waived
   when the level engine finishes too fast to time reliably there
   (small-hardware guard in the spirit of P3's core-count waiver). *)
let engine_bench () =
  section "P4: monotone D&C DP engine + O(n) SSE fast path";
  let module Dp = Rs_histogram.Dp in
  let module H = Rs_histogram.Histogram in
  let module Synopsis = Rs_core.Synopsis in
  let ns = if quick then [ 255; 1023 ] else [ 511; 2047; 8191 ] in
  let buckets = 12 in
  let best_of_3 f =
    let t = ref infinity in
    for _ = 1 to 3 do
      let _, s = E.Timing.time f in
      if s < !t then t := s
    done;
    !t
  in
  let methods =
    [
      ( "point-opt",
        fun engine p ~buckets ->
          snd (Rs_histogram.Vopt.build_with_cost ~engine p ~buckets) );
      ( "v-optimal",
        fun engine p ~buckets ->
          snd
            (Rs_histogram.Vopt.build_with_cost ~weighted:false ~engine p
               ~buckets) );
      ( "prefix-opt",
        fun engine p ~buckets ->
          snd (Rs_histogram.Prefix_opt.build_with_cost ~engine p ~buckets) );
    ]
  in
  let engine_rows = ref [] in
  List.iter
    (fun n ->
      let ds = Dataset.generate (Printf.sprintf "sorted-zipf-%d" n) in
      let p = Dataset.prefix ds in
      List.iter
        (fun (name, run) ->
          let cost_level = ref nan and cost_mono = ref nan in
          let level_s =
            best_of_3 (fun () -> cost_level := run Dp.Level p ~buckets)
          in
          let mono_s =
            best_of_3 (fun () -> cost_mono := run Dp.Monotone p ~buckets)
          in
          let scale = Float.max 1. (abs_float !cost_level) in
          let equal = abs_float (!cost_level -. !cost_mono) /. scale <= 1e-9 in
          engine_rows := (name, n, level_s, mono_s, equal) :: !engine_rows)
        methods)
    ns;
  let engine_rows = List.rev !engine_rows in
  Printf.printf "%-12s %6s %12s %12s %9s %6s\n" "method" "n" "level(s)"
    "monotone(s)" "speedup" "equal";
  List.iter
    (fun (m, n, ls, ms, eq) ->
      Printf.printf "%-12s %6d %12.6f %12.6f %8.2fx %6b\n" m n ls ms
        (if ms > 0. then ls /. ms else 1.)
        eq)
    engine_rows;
  (* SSE measurement: closed forms vs the O(n²) sweep, one synopsis per
     lowering family (prefix, piecewise, shared-prefix wavelet,
     two-sided wavelet). *)
  let sse_rows = ref [] in
  List.iter
    (fun n ->
      let ds = Dataset.generate (Printf.sprintf "zipf-%d" n) in
      let build m = Builder.build ~options ds ~method_name:m ~budget_words:32 in
      List.iter
        (fun m ->
          let s = build m in
          let fast = ref nan and slow = ref nan in
          let fast_s = best_of_3 (fun () -> fast := Synopsis.sse ds s) in
          let slow_s = best_of_3 (fun () -> slow := Synopsis.sse_sweep ds s) in
          let scale = Float.max 1. (abs_float !slow) in
          let equal = abs_float (!fast -. !slow) /. scale <= 1e-8 in
          sse_rows := (m, n, fast_s, slow_s, equal) :: !sse_rows)
        [ "v-optimal"; "sap1"; "wave-range-opt"; "wave-aa" ])
    ns;
  let sse_rows = List.rev !sse_rows in
  Printf.printf "\n%-16s %6s %12s %12s %9s %6s\n" "sse path" "n" "fast(s)"
    "sweep(s)" "speedup" "equal";
  List.iter
    (fun (m, n, fs, ss, eq) ->
      Printf.printf "%-16s %6d %12.6f %12.6f %8.0fx %6b\n" m n fs ss
        (if fs > 0. then ss /. fs else 1.)
        eq)
    sse_rows;
  let oc = open_out "BENCH_PR4.json" in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  \"buckets\": %d,\n" quick buckets;
  Printf.fprintf oc "  \"engines\": [\n";
  let last_i = List.length engine_rows - 1 in
  List.iteri
    (fun i (m, n, ls, ms, eq) ->
      Printf.fprintf oc
        "    {\"method\": %S, \"n\": %d, \"level_seconds\": %.6f, \
         \"monotone_seconds\": %.6f, \"speedup\": %.4f, \"cost_equal\": %b}%s\n"
        m n ls ms
        (if ms > 0. then ls /. ms else 1.)
        eq
        (if i = last_i then "" else ","))
    engine_rows;
  Printf.fprintf oc "  ],\n  \"sse_paths\": [\n";
  let last_i = List.length sse_rows - 1 in
  List.iteri
    (fun i (m, n, fs, ss, eq) ->
      Printf.fprintf oc
        "    {\"synopsis\": %S, \"n\": %d, \"fast_seconds\": %.6f, \
         \"sweep_seconds\": %.6f, \"speedup\": %.4f, \"sse_equal\": %b}%s\n"
        m n fs ss
        (if fs > 0. then ss /. fs else 1.)
        eq
        (if i = last_i then "" else ","))
    sse_rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\n(wrote BENCH_PR4.json)\n";
  let all_equal =
    List.for_all (fun (_, _, _, _, eq) -> eq) engine_rows
    && List.for_all (fun (_, _, _, _, eq) -> eq) sse_rows
  in
  let n_max = List.fold_left max 0 ns in
  let at_max = List.filter (fun (_, n, _, _, _) -> n = n_max) engine_rows in
  (* Below ~10ms of level-engine work the comparison is timer noise on
     slow/contended hardware; the equality half still binds. *)
  let waived =
    List.for_all (fun (_, _, ls, _, _) -> ls < 0.01) at_max
  in
  let mono_no_slower =
    List.for_all (fun (_, _, ls, ms, _) -> ms <= ls *. 1.10) at_max
  in
  let holds = all_equal && (waived || mono_no_slower) in
  let verdict =
    {
      E.Claims.claim_id = "P4";
      description =
        "the monotone D&C engine matches the level engine's optimum on \
         certified inputs and is no slower at the largest n; the closed-form \
         SSE paths match the O(n^2) sweep";
      measured =
        Printf.sprintf "all results equal=%b; monotone<=1.1x level at n=%d: %b%s"
          all_equal n_max mono_no_slower
          (if waived then " (speed waived: level <10ms, timer noise)" else "");
      holds;
    }
  in
  print_string (E.Claims.table (record [ verdict ]))

(* O1: observability overhead.  The metrics/trace layer must be free
   when disabled — recording sites are one branch on a bool ref — and
   cheap enough when enabled that an operator can leave RS_METRICS=1 on.
   Times the quick OPT-A rounded workload with the registry disabled
   (twice, the spread estimating timer noise) and enabled, writes
   BENCH_PR5.json, and fails the run if disabled-mode overhead exceeds
   noise.  Like P3/P4, the timing half is waived on hardware where the
   workload is too fast to time reliably; the within-noise bound uses
   the measured spread so a loaded CI box doesn't fail spuriously. *)
let obs_overhead () =
  section "O1: observability instrumentation overhead";
  let module M = Rs_util.Metrics in
  let module T = Rs_util.Trace in
  let ds = Dataset.paper () in
  let p = Dataset.prefix ds in
  let workload () =
    ignore (Rs_histogram.Opt_a.build_rounded ~max_states:5_000_000 p ~buckets:6 ~x:8)
  in
  let best_of_3 f =
    let t = ref infinity in
    for _ = 1 to 3 do
      let _, s = E.Timing.time f in
      if s < !t then t := s
    done;
    !t
  in
  let was_metrics = M.enabled () and was_trace = T.enabled () in
  M.disable ();
  T.disable ();
  workload () (* warm up allocators/caches off the clock *);
  let disabled_a = best_of_3 workload in
  let disabled_b = best_of_3 workload in
  let disabled = Float.min disabled_a disabled_b in
  let noise =
    if disabled > 0. then abs_float (disabled_a -. disabled_b) /. disabled
    else 0.
  in
  M.reset ();
  M.enable ();
  T.enable ();
  let enabled = best_of_3 workload in
  let states_recorded =
    match List.assoc_opt "opt_a.states" (M.report ()).M.r_counters with
    | Some v -> v
    | None -> 0
  in
  M.disable ();
  T.disable ();
  if was_metrics then M.enable ();
  if was_trace then T.enable ();
  (* Disabled-path microbenchmark: cost of one not-recording incr. *)
  let c = M.counter "bench.o1.disabled_probe" in
  let iters = 10_000_000 in
  let _, micro_s =
    E.Timing.time (fun () ->
        for _ = 1 to iters do
          M.incr c
        done)
  in
  let ns_per_disabled_incr = micro_s /. float_of_int iters *. 1e9 in
  let overhead =
    if disabled > 0. then (enabled -. disabled) /. disabled else 0.
  in
  Printf.printf "disabled: %.6fs (runs %.6f / %.6f, noise %.1f%%)\n" disabled
    disabled_a disabled_b (100. *. noise);
  Printf.printf "enabled:  %.6fs (overhead %+.1f%%, %d states recorded)\n"
    enabled (100. *. overhead) states_recorded;
  Printf.printf "disabled-mode incr: %.2f ns\n" ns_per_disabled_incr;
  let tolerance = Float.max 0.15 (2. *. noise) in
  (* Below ~10ms the workload is timer noise on slow hardware; the
     recording-works half (nonzero counters) still binds. *)
  let waived = disabled < 0.01 in
  let within_noise = enabled <= disabled *. (1. +. tolerance) in
  let recorded = states_recorded > 0 in
  let holds = recorded && (waived || within_noise) in
  let oc = open_out "BENCH_PR5.json" in
  Printf.fprintf oc "{\n  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"workload\": \"opt-a-rounded(x=8) B=6 on paper dataset\",\n";
  Printf.fprintf oc "  \"disabled_seconds\": %.6f,\n" disabled;
  Printf.fprintf oc "  \"disabled_runs\": [%.6f, %.6f],\n" disabled_a disabled_b;
  Printf.fprintf oc "  \"noise_fraction\": %.4f,\n" noise;
  Printf.fprintf oc "  \"enabled_seconds\": %.6f,\n" enabled;
  Printf.fprintf oc "  \"overhead_fraction\": %.4f,\n" overhead;
  Printf.fprintf oc "  \"tolerance_fraction\": %.4f,\n" tolerance;
  Printf.fprintf oc "  \"states_recorded\": %d,\n" states_recorded;
  Printf.fprintf oc "  \"ns_per_disabled_incr\": %.2f,\n" ns_per_disabled_incr;
  Printf.fprintf oc "  \"waived\": %b,\n" waived;
  Printf.fprintf oc "  \"holds\": %b\n}\n" holds;
  close_out oc;
  Printf.printf "\n(wrote BENCH_PR5.json)\n";
  let verdict =
    {
      E.Claims.claim_id = "O1";
      description =
        "with the registry enabled the quick OPT-A workload is within noise \
         of the disabled run, and the enabled run records nonzero DP state \
         counters";
      measured =
        Printf.sprintf
          "overhead %+.1f%% (tolerance %.1f%%, noise %.1f%%); %d states \
           recorded; %.2f ns/disabled incr%s"
          (100. *. overhead) (100. *. tolerance) (100. *. noise)
          states_recorded ns_per_disabled_incr
          (if waived then " (timing waived: workload <10ms)" else "");
      holds;
    }
  in
  print_string (E.Claims.table (record [ verdict ]))

(* G6: fault-tolerant segmented builds.  Three measurements on one
   dataset: (a) segmented vs monolithic build time at jobs = 1 and 4
   (coarse one-domain-per-segment parallelism vs the level-parallel
   DP); (b) the greedy cross-segment planner vs a uniform split, which
   must win on the skewed dataset while never exceeding the global
   budget; (c) a kill-at-a-segment-boundary resume round-trip, which
   must reproduce the uninterrupted build bit-for-bit.  Raw numbers go
   to BENCH_PR6.json; (b) and (c) are claim verdicts, (a) is recorded
   but never asserted (a speedup is unobservable on one core). *)
let segmented_bench () =
  section "G6: fault-tolerant segmented builds (supervisor + planner)";
  let module Sup = Rs_core.Supervisor in
  let module Seg = Rs_core.Segmented in
  let module G = Rs_util.Governor in
  let ds = Dataset.generate (if quick then "zipf-1024" else "zipf-2048") in
  let method_name = "point-opt" in
  let budget_words = 96 in
  let segments = 8 in
  let build ~planner ~jobs =
    let options = { options with Builder.jobs } in
    E.Timing.time (fun () ->
        match
          Sup.build ~options ~planner ds ~method_name ~budget_words ~segments
        with
        | Ok (t, report) -> (t, report)
        | Error e -> failwith (Rs_util.Error.to_string e))
  in
  let (seg_greedy, _), seg_s1 = build ~planner:`Greedy ~jobs:1 in
  let (seg_greedy4, _), seg_s4 = build ~planner:`Greedy ~jobs:4 in
  let (seg_uniform, _), _ = build ~planner:`Uniform ~jobs:1 in
  let mono_time jobs =
    let options = { options with Builder.jobs } in
    snd
      (E.Timing.time (fun () ->
           ignore (Builder.build ~options ds ~method_name ~budget_words)))
  in
  let mono_s1 = mono_time 1 in
  let mono_s4 = mono_time 4 in
  let sse_greedy = Seg.sse ds seg_greedy in
  let sse_uniform = Seg.sse ds seg_uniform in
  let greedy_words = Seg.storage_words seg_greedy in
  let uniform_words = Seg.storage_words seg_uniform in
  Printf.printf "build time (n=%d, %s, %dw, %d segments):\n" (Dataset.n ds)
    method_name budget_words segments;
  Printf.printf "  monolithic  jobs=1 %.3fs   jobs=4 %.3fs\n" mono_s1 mono_s4;
  Printf.printf "  segmented   jobs=1 %.3fs   jobs=4 %.3fs\n" seg_s1 seg_s4;
  Printf.printf "planner SSE: greedy %.6g (%dw)  uniform %.6g (%dw)\n"
    sse_greedy greedy_words sse_uniform uniform_words;
  (* (c) kill at a segment boundary, then resume.  The supervisor's
     boundary governor expires deterministically (poll budget, Snapshot
     mode), the manifest pins the completed segments, and the resumed
     build must deliver the same bytes as an uninterrupted one. *)
  let rds = Dataset.generate "zipf-256" in
  let rsegs = 8 and rbudget = 64 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rs_bench_seg.%d" (Unix.getpid ()))
  in
  let clean () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then (
            Array.iter (fun g -> Sys.remove (Filename.concat p g))
              (Sys.readdir p);
            Unix.rmdir p)
          else Sys.remove p)
        (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  clean ();
  let baseline =
    match
      Sup.build ~planner:`Uniform rds ~method_name:"opt-a"
        ~budget_words:rbudget ~segments:rsegs
    with
    | Ok (t, _) -> Seg.to_string t
    | Error e -> failwith (Rs_util.Error.to_string e)
  in
  (* expire at the 4th boundary poll: segments 0-2 committed, the rest
     pending *)
  let kill_governor = G.create ~deadline_mode:G.Snapshot ~poll_budget:4 () in
  let options_kill = { options with Builder.governor = kill_governor } in
  let interrupted =
    match
      Sup.build ~options:options_kill ~planner:`Uniform ~manifest_dir:dir rds
        ~method_name:"opt-a" ~budget_words:rbudget ~segments:rsegs
    with
    | Error (Rs_util.Error.Interrupted _) -> true
    | Ok _ | Error _ -> false
  in
  let resumed =
    match
      Sup.build ~planner:`Uniform ~manifest_dir:dir ~resume:true rds
        ~method_name:"opt-a" ~budget_words:rbudget ~segments:rsegs
    with
    | Ok (t, report) ->
        Some (Seg.to_string t, report)
    | Error _ -> None
  in
  clean ();
  let resumed_count =
    match resumed with
    | Some (_, report) ->
        Array.fold_left
          (fun acc (s : Sup.seg_report) -> if s.Sup.resumed then acc + 1 else acc)
          0 report.Sup.segs
    | None -> 0
  in
  let roundtrip =
    interrupted
    && (match resumed with Some (bytes, _) -> bytes = baseline | None -> false)
    && resumed_count = 3
  in
  let planner_holds =
    sse_greedy <= sse_uniform
    && greedy_words <= budget_words
    && uniform_words <= budget_words
  in
  let oc = open_out "BENCH_PR6.json" in
  Printf.fprintf oc "{\n  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"dataset\": %S,\n" (Dataset.name ds);
  Printf.fprintf oc "  \"method\": %S,\n" method_name;
  Printf.fprintf oc "  \"budget_words\": %d,\n" budget_words;
  Printf.fprintf oc "  \"segments\": %d,\n" segments;
  Printf.fprintf oc "  \"monolithic_seconds\": {\"jobs1\": %.6f, \"jobs4\": %.6f},\n"
    mono_s1 mono_s4;
  Printf.fprintf oc "  \"segmented_seconds\": {\"jobs1\": %.6f, \"jobs4\": %.6f},\n"
    seg_s1 seg_s4;
  Printf.fprintf oc "  \"planner\": {\"greedy_sse\": %.17g, \"uniform_sse\": %.17g, \
                     \"greedy_words\": %d, \"uniform_words\": %d},\n"
    sse_greedy sse_uniform greedy_words uniform_words;
  Printf.fprintf oc "  \"resume\": {\"interrupted\": %b, \"resumed_segments\": %d, \
                     \"bit_identical\": %b},\n"
    interrupted resumed_count roundtrip;
  Printf.fprintf oc "  \"jobs4_bit_identical\": %b\n}\n"
    (Seg.to_string seg_greedy = Seg.to_string seg_greedy4);
  close_out oc;
  Printf.printf "\n(wrote BENCH_PR6.json)\n";
  let verdicts =
    [
      {
        E.Claims.claim_id = "G6a";
        description =
          "the greedy cross-segment planner never beats the budget and never \
           loses to a uniform split on the skewed dataset";
        measured =
          Printf.sprintf "greedy SSE %.6g (%dw) vs uniform %.6g (%dw), budget %dw"
            sse_greedy greedy_words sse_uniform uniform_words budget_words;
        holds = planner_holds;
      };
      {
        E.Claims.claim_id = "G6b";
        description =
          "a segmented build killed at a segment boundary resumes from its \
           manifest (skipping the committed segments) and reproduces the \
           uninterrupted synopsis bit-for-bit";
        measured =
          Printf.sprintf "interrupted=%b, resumed_segments=%d, bit_identical=%b"
            interrupted resumed_count roundtrip;
        holds = roundtrip;
      };
    ]
  in
  print_string (E.Claims.table (record verdicts))

(* G7: the fault-tolerant serving daemon.  Three measurements against a
   store built in a scratch directory: (a) in-process throughput and
   tail latency of exact single-range queries plus the bound rung under
   poll-budget pressure; (b) recovery after a kill — a server is
   abandoned with no orderly shutdown and a fresh one opens the same
   store; time to first answer is reported, and every probe must come
   back byte-identical (G7a, the restart-determinism claim); (c) a
   seeded chaos soak — the same harness the [@serve]/[@fault] gate
   runs — which must hold every invariant (G7b).  Raw numbers go to
   BENCH_PR7.json. *)
let serve_bench () =
  section "G7: serving daemon (rs_serve)";
  let module Server = Rs_serve.Server in
  let module P = Rs_serve.Protocol in
  let module Chaos = Rs_serve.Chaos in
  let module Store = Rs_core.Store in
  let module Rng = Rs_dist.Rng in
  let module Mclock = Rs_util.Mclock in
  let ds = Dataset.paper () in
  let n = Dataset.n ds in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rs_bench_serve.%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let clean () = if Sys.file_exists dir then rm_rf dir in
  clean ();
  let store = Store.open_dir dir in
  List.iter
    (fun (name, method_name, budget_words) ->
      Store.put store ~name (Builder.build ds ~method_name ~budget_words))
    [
      ("hist", "point-opt", 24);
      ("sap1", "sap1", 24);
      ("wave", "wave-range-opt", 24);
    ];
  let config ?(cache = 512) ?(queue = 64) () =
    {
      (Server.default_config ~store_dir:dir) with
      Server.dataset = Some ds;
      cache_capacity = cache;
      queue_capacity = queue;
    }
  in
  let query ?budget ~id ~synopsis ranges =
    P.encode_request
      (P.Query
         {
           id = Some id;
           synopsis;
           ranges = Array.of_list ranges;
           deadline_ms = None;
           poll_budget = budget;
           attempt = 1;
         })
  in
  let is_rung want line =
    match P.decode_response line with
    | Ok (P.Answers { rung; _ }) -> rung = want
    | _ -> false
  in
  (* (a) throughput and p99 latency, one rung at a time.  The cache is
     sized to zero so every request does real evaluation work. *)
  let requests = if quick then 400 else 4000 in
  let latency_sweep ~label ~batch ~budget ~want =
    let server =
      match Server.create (config ~cache:0 ()) with
      | Ok s -> s
      | Error e -> failwith (Rs_util.Error.to_string e)
    in
    let rng = Rng.create 0x9e7 in
    let lat = Array.make requests 0. in
    let wrong = ref 0 in
    let t0 = Mclock.now () in
    for i = 0 to requests - 1 do
      let ranges =
        List.init batch (fun _ ->
            let a = 1 + Rng.int rng n in
            let b = a + Rng.int rng (n - a + 1) in
            (a, b))
      in
      let line = query ?budget ~id:(string_of_int i) ~synopsis:"hist" ranges in
      let s = Mclock.now () in
      let reply = Server.handle_line server line in
      lat.(i) <- Mclock.now () -. s;
      if not (is_rung want reply) then incr wrong
    done;
    let total = Mclock.now () -. t0 in
    Server.close server;
    Array.sort compare lat;
    let pct p = lat.(min (requests - 1) (int_of_float (p *. float requests))) in
    let qps = float requests /. total in
    Printf.printf
      "%-12s %7.0f req/s   p50 %7.1f us   p99 %7.1f us   wrong rung %d\n" label
      qps
      (pct 0.50 *. 1e6)
      (pct 0.99 *. 1e6)
      !wrong;
    (qps, pct 0.50, pct 0.99, !wrong)
  in
  Printf.printf
    "in-process, %d requests per rung (exact: 1 range, bound: 80 ranges; \
     n=%d):\n"
    requests n;
  let exact_qps, exact_p50, exact_p99, exact_wrong =
    latency_sweep ~label:"exact" ~batch:1 ~budget:None ~want:P.Exact
  in
  let bound_qps, bound_p50, bound_p99, bound_wrong =
    (* 80 ranges = 2 chunks of exact work, but a 3-poll budget leaves
       only one working poll after admission: the prefix rung is the
       cheapest that fits — the degraded-but-bounded path. *)
    latency_sweep ~label:"bound (b=3)" ~batch:80 ~budget:(Some 3) ~want:P.Bound
  in
  (* (b) recovery after a kill: the first server is abandoned without
     any shutdown; a fresh one must reload the generation from the
     store and serve the identical bytes. *)
  let probe_lines =
    [
      query ~id:"r1" ~synopsis:"hist" [ (1, n); (3, 17); (n / 2, n) ];
      query ~id:"r2" ~synopsis:"sap1" [ (1, 5) ];
      query ~id:"r3" ~synopsis:"wave" [ (2, 64); (1, 1) ];
      query ~id:"r4" ~synopsis:"hist" ~budget:3 [ (1, 9); (4, 44) ];
    ]
  in
  let first = Chaos.probe (config ()) ~lines:probe_lines in
  let t0 = Mclock.now () in
  let second = Chaos.probe (config ()) ~lines:probe_lines in
  let recovery_s = Mclock.now () -. t0 in
  let restart_identical = first = second in
  Printf.printf
    "recovery after kill: %.3f ms to reopen the store and answer %d probes \
     (byte-identical: %b)\n"
    (recovery_s *. 1e3)
    (List.length probe_lines) restart_identical;
  (* (c) the seeded soak: same harness as the test gate, bench-sized.
     Quick mode keeps it under ten seconds. *)
  let soak_requests = if quick then 150 else 600 in
  (* A small queue keeps the op mix balanced: overflow bursts scale with
     the queue capacity and would otherwise eat the request budget. *)
  let outcome =
    Chaos.soak ~requests:soak_requests ~seed:0xB7 (config ~queue:4 ~cache:64 ())
  in
  Printf.printf "soak: %s\n" (Format.asprintf "%a" Chaos.pp_outcome outcome);
  clean ();
  let soak_holds = outcome.Chaos.violations = [] in
  let oc = open_out "BENCH_PR7.json" in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  \"dataset\": %S,\n" quick
    (Dataset.name ds);
  Printf.fprintf oc "  \"requests_per_rung\": %d,\n" requests;
  Printf.fprintf oc
    "  \"exact\": {\"qps\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f},\n"
    exact_qps (exact_p50 *. 1e6) (exact_p99 *. 1e6);
  Printf.fprintf oc
    "  \"bound\": {\"qps\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f},\n"
    bound_qps (bound_p50 *. 1e6) (bound_p99 *. 1e6);
  Printf.fprintf oc
    "  \"recovery\": {\"ms_to_first_answers\": %.3f, \"byte_identical\": %b},\n"
    (recovery_s *. 1e3) restart_identical;
  Printf.fprintf oc
    "  \"soak\": {\"requests\": %d, \"exact\": %d, \"bound\": %d, \"stale\": \
     %d, \"refused\": %d, \"shed\": %d, \"injected\": %d, \"reloads\": %d, \
     \"violations\": %d}\n}\n"
    outcome.Chaos.requests outcome.Chaos.exact outcome.Chaos.bound
    outcome.Chaos.stale outcome.Chaos.refused outcome.Chaos.shed
    outcome.Chaos.injected outcome.Chaos.reloads
    (List.length outcome.Chaos.violations);
  close_out oc;
  Printf.printf "\n(wrote BENCH_PR7.json)\n";
  let verdicts =
    [
      {
        E.Claims.claim_id = "G7a";
        description =
          "a server killed with no shutdown and restarted against the same \
           store serves byte-identical answers on every rung";
        measured =
          Printf.sprintf "recovery %.3f ms, %d probes, byte_identical=%b, \
                          wrong-rung exact=%d bound=%d"
            (recovery_s *. 1e3)
            (List.length probe_lines) restart_identical exact_wrong bound_wrong;
        holds = restart_identical && exact_wrong = 0 && bound_wrong = 0;
      };
      {
        E.Claims.claim_id = "G7b";
        description =
          "the seeded chaos soak (queries, overload bursts, reloads, fault \
           injections, shutdown) holds every serving invariant: no wrong \
           answers, no unlabeled degradation, no lost shutdowns";
        measured = Format.asprintf "%a" Chaos.pp_outcome outcome;
        holds = soak_holds;
      };
    ]
  in
  print_string (E.Claims.table (record verdicts))

(* G9: the allocation-lean batched serving fast path.  Four measurements
   against a store built in a scratch directory:

   (a) matched-geometry rung latency — exact and bound both at 80
   ranges per request (BENCH_PR7 compared bound@80 against exact@1, a
   21x "gap" that was mostly the 80-float response encode, paid by
   both rungs); the exact@1 row is kept for continuity.  G9a claims
   the bound p50 within 4x of the exact p50 at the same geometry.

   (b) the vectorized batch kernel against its per-range estimator
   twin, on the evaluation alone (G9b, >= 1.5x, timing-waived when
   the baseline is untimeable).

   (c) an rs_served daemon over a real Unix socket driven by pipelined
   concurrent clients: aggregate 4-client qps must not fall below
   1-client qps (timing half, waived below 2 cores), and the
   per-client response streams must be byte-identical across a
   kill -9 and restart with every response routed to the asking
   connection (determinism half, never waived) — G9c.

   (d) the steady-state allocation contract: one warm exact request
   through the whole server path, Gc.minor_words delta against the
   O(k) budget the @serve gate enforces (G9d, never waived).

   Raw numbers go to BENCH_PR9.json. *)
let serve_batch_bench () =
  section "G9: batched serving fast path (vectorized eval, LRU cache, multi-client)";
  let module Server = Rs_serve.Server in
  let module Generation = Rs_serve.Generation in
  let module P = Rs_serve.Protocol in
  let module Store = Rs_core.Store in
  let module Rng = Rs_dist.Rng in
  let module Mclock = Rs_util.Mclock in
  let cores = Domain.recommended_domain_count () in
  let ds = Dataset.paper () in
  let n = Dataset.n ds in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rs_bench_serve9.%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let clean () = if Sys.file_exists dir then rm_rf dir in
  clean ();
  let store = Store.open_dir dir in
  List.iter
    (fun (name, method_name, budget_words) ->
      Store.put store ~name (Builder.build ds ~method_name ~budget_words))
    [ ("hist", "point-opt", 24); ("sap1", "sap1", 24) ];
  let config ?(cache = 512) () =
    {
      (Server.default_config ~store_dir:dir) with
      Server.dataset = Some ds;
      cache_capacity = cache;
    }
  in
  let det_ranges c i =
    (* pure function of (client, index): byte determinism across runs
       must not depend on a shared RNG's interleaving *)
    let a = 1 + (((i * 7) + (c * 3)) mod n) in
    let b = min n (a + ((i * 13) mod 17)) in
    [ (a, b) ]
  in
  let query ?budget ~id ~synopsis ranges =
    P.encode_request
      (P.Query
         {
           id = Some id;
           synopsis;
           ranges = Array.of_list ranges;
           deadline_ms = None;
           poll_budget = budget;
           attempt = 1;
         })
  in
  (* (a) matched-geometry rung latency, in-process, cache disabled so
     every request does real evaluation work. *)
  let requests = if quick then 400 else 4000 in
  let latency_sweep ~label ~batch ~budget ~want =
    let server =
      match Server.create (config ~cache:0 ()) with
      | Ok s -> s
      | Error e -> failwith (Rs_util.Error.to_string e)
    in
    let rng = Rng.create 0x9e9 in
    let lat = Array.make requests 0. in
    let wrong = ref 0 in
    let t0 = Mclock.now () in
    for i = 0 to requests - 1 do
      let ranges =
        List.init batch (fun _ ->
            let a = 1 + Rng.int rng n in
            let b = a + Rng.int rng (n - a + 1) in
            (a, b))
      in
      let line = query ?budget ~id:(string_of_int i) ~synopsis:"hist" ranges in
      let s = Mclock.now () in
      let reply = Server.handle_line server line in
      lat.(i) <- Mclock.now () -. s;
      (match P.decode_response reply with
      | Ok (P.Answers { rung; _ }) when rung = want -> ()
      | _ -> incr wrong)
    done;
    let total = Mclock.now () -. t0 in
    Server.close server;
    Array.sort compare lat;
    let pct p = lat.(min (requests - 1) (int_of_float (p *. float requests))) in
    let qps = float requests /. total in
    Printf.printf
      "%-16s %7.0f req/s   p50 %7.1f us   p99 %7.1f us   wrong rung %d\n" label
      qps
      (pct 0.50 *. 1e6)
      (pct 0.99 *. 1e6)
      !wrong;
    (qps, pct 0.50, pct 0.99, !wrong)
  in
  Printf.printf
    "in-process, %d requests per row, matched geometry (80 ranges; n=%d):\n"
    requests n;
  let _, exact1_p50, _, _ =
    latency_sweep ~label:"exact (k=1)" ~batch:1 ~budget:None ~want:P.Exact
  in
  let exact_qps, exact_p50, exact_p99, exact_wrong =
    latency_sweep ~label:"exact (k=80)" ~batch:80 ~budget:None ~want:P.Exact
  in
  let bound_qps, bound_p50, bound_p99, bound_wrong =
    latency_sweep ~label:"bound (k=80,b=3)" ~batch:80 ~budget:(Some 3)
      ~want:P.Bound
  in
  let rung_ratio = bound_p50 /. exact_p50 in
  let rung_timeable = exact_p50 >= 1e-6 in
  Printf.printf
    "matched-geometry p50 ratio bound/exact: %.2fx (PR7 compared bound@80 \
     to exact@1: that ratio is %.1fx here)\n"
    rung_ratio
    (bound_p50 /. exact1_p50);
  (* (b) the batch kernel against its per-range twin, evaluation only. *)
  let gen =
    match Generation.load ~dataset:ds ~gen_id:1 dir with
    | Ok g -> g
    | Error e -> failwith (Rs_util.Error.to_string e)
  in
  let entry =
    match Generation.find gen "hist" with
    | Some e -> e
    | None -> failwith "hist entry missing"
  in
  let k = 80 in
  let rng = Rng.create 0xBA7C4 in
  let ranges =
    Array.init k (fun _ ->
        let a = 1 + Rng.int rng n in
        let b = a + Rng.int rng (n - a + 1) in
        (a, b))
  in
  let out = Array.make k 0. in
  let iters = if quick then 3_000 else 12_000 in
  let time_best f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Mclock.now () in
      f ();
      best := min !best (Mclock.now () -. t0)
    done;
    !best
  in
  let fast_s =
    time_best (fun () ->
        for _ = 1 to iters do
          Rs_query.Batch.eval entry.Generation.plan ~ranges ~lo:0 ~hi:(k - 1)
            ~out
        done)
  in
  let twin_s =
    time_best (fun () ->
        for _ = 1 to iters do
          for i = 0 to k - 1 do
            let a, b = ranges.(i) in
            out.(i) <- Rs_core.Synopsis.estimate entry.Generation.syn ~a ~b
          done
        done)
  in
  let kernel_speedup = twin_s /. fast_s in
  let kernel_timeable = twin_s >= 0.05 in
  Printf.printf
    "batch kernel: %.1f ns/range   per-range twin: %.1f ns/range   \
     speedup %.2fx (%d x %d ranges)\n"
    (fast_s *. 1e9 /. float (iters * k))
    (twin_s *. 1e9 /. float (iters * k))
    kernel_speedup iters k;
  (* (c) the daemon under pipelined concurrent clients.  It runs as
     rs_served, built next to this executable, with the in-process
     [config ()]: a fork is refused once earlier sections have spawned
     domains. *)
  let socket = Filename.concat dir "bench.sock" in
  let served =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/rs_served.exe"
  in
  if not (Sys.file_exists served) then
    failwith (Printf.sprintf "G9 runs %s: build it first (dune build)" served);
  let spawn_daemon () =
    flush stdout;
    flush stderr;
    Unix.create_process served
      [| served; "--store"; dir; "--data"; "paper"; "--cache"; "512"; "--socket"; socket |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let rec connect_retry tries =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_UNIX socket) with
    | () -> sock
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.close sock;
        Unix.sleepf 0.05;
        connect_retry (tries - 1)
  in
  let write_all fd s =
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write_substring fd s !off (len - !off)
    done
  in
  (* Drive [clients] pipelined connections (window of 32 in flight per
     client), collecting each client's response lines in arrival order.
     Returns (aggregate qps, per-client response lines). *)
  let drive ~clients ~per_client =
    let socks = Array.init clients (fun _ -> connect_retry 100) in
    let sent = Array.make clients 0 in
    let got = Array.make clients 0 in
    let acc = Array.init clients (fun _ -> Buffer.create 4096) in
    let read_buf = Bytes.create 65536 in
    let window = 32 in
    let total = clients * per_client in
    let total_got () = Array.fold_left ( + ) 0 got in
    let deadline = Unix.gettimeofday () +. 60. in
    let t0 = Mclock.now () in
    while total_got () < total do
      if Unix.gettimeofday () > deadline then
        failwith "bench daemon stalled (60s without completing)";
      Array.iteri
        (fun c sock ->
          while sent.(c) < per_client && sent.(c) - got.(c) < window do
            let line =
              query
                ~id:(Printf.sprintf "c%d-%d" c sent.(c))
                ~synopsis:"hist" (det_ranges c sent.(c))
            in
            write_all sock (line ^ "\n");
            sent.(c) <- sent.(c) + 1
          done)
        socks;
      let readable, _, _ =
        Unix.select (Array.to_list socks) [] [] 5.0
      in
      List.iter
        (fun fd ->
          let c = ref 0 in
          Array.iteri (fun i s -> if s = fd then c := i) socks;
          match Unix.read fd read_buf 0 (Bytes.length read_buf) with
          | 0 -> failwith "bench daemon closed a connection early"
          | len ->
              Buffer.add_subbytes acc.(!c) read_buf 0 len;
              for i = 0 to len - 1 do
                if Bytes.get read_buf i = '\n' then got.(!c) <- got.(!c) + 1
              done)
        readable
    done;
    let dt = Mclock.now () -. t0 in
    Array.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) socks;
    let lines c =
      String.split_on_char '\n' (Buffer.contents acc.(c))
      |> List.filter (fun s -> s <> "")
    in
    (float total /. dt, Array.to_list (Array.init clients lines))
  in
  let shutdown_daemon pid =
    (* an orderly shutdown through a fresh connection *)
    (try
       let sock = connect_retry 20 in
       write_all sock (P.encode_request P.Shutdown ^ "\n");
       let buf = Bytes.create 256 in
       ignore (Unix.read sock buf 0 (Bytes.length buf));
       Unix.close sock
     with _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  let per_client_total = if quick then 12000 else 30000 in
  (* 1-client and 4-client rounds alternate, and the claim reads the
     median of each round pair's 4-client/1-client ratio: both halves of
     a pair sample the same phase of a shared host, where the best round
     of each side could come from different phases (best-of-3 per side
     read 0.80x–1.38x on one tree). *)
  let rounds = 15 in
  let pid = spawn_daemon () in
  let ratios = Array.make rounds 0. in
  let best1 = ref 0. and best4 = ref 0. and last4 = ref [] in
  for r = 0 to rounds - 1 do
    let q1, _ = drive ~clients:1 ~per_client:per_client_total in
    let q4, lines = drive ~clients:4 ~per_client:(per_client_total / 4) in
    ratios.(r) <- q4 /. q1;
    best1 := Float.max !best1 q1;
    best4 := Float.max !best4 q4;
    last4 := lines
  done;
  Array.sort compare ratios;
  let qps1 = !best1 and qps4 = !best4 and responses4 = !last4 in
  (* kill -9, restart, re-drive the 4-client interleaving: per-client
     response streams must be byte-identical and correctly routed *)
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  let pid2 = spawn_daemon () in
  let _, responses4' = drive ~clients:4 ~per_client:(per_client_total / 4) in
  shutdown_daemon pid2;
  let routed_ok =
    List.for_all2
      (fun c lines ->
        List.length lines = per_client_total / 4
        && List.for_all2
             (fun i line ->
               match P.decode_response line with
               | Ok (P.Answers { id = Some id; rung = P.Exact; _ }) ->
                   id = Printf.sprintf "c%d-%d" c i
               | _ -> false)
             (List.init (List.length lines) Fun.id)
             lines)
      [ 0; 1; 2; 3 ] responses4
  in
  let restart_identical = responses4 = responses4' in
  let qps_ratio = ratios.(rounds / 2) in
  Printf.printf
    "daemon over %s: best 1 client %7.0f req/s   best 4 clients %7.0f \
     req/s   median pair ratio %.2fx   routed ok %b   restart \
     byte-identical %b\n"
    socket qps1 qps4 qps_ratio routed_ok restart_identical;
  (* (d) the steady-state allocation contract, whole server path. *)
  let alloc_server =
    match Server.create (config ()) with
    | Ok s -> s
    | Error e -> failwith (Rs_util.Error.to_string e)
  in
  let alloc_k = 192 in
  let rng = Rng.create 0xA110C in
  let alloc_line =
    query ~id:"alloc" ~synopsis:"hist"
      (List.init alloc_k (fun _ ->
           let a = 1 + Rng.int rng n in
           (a, a + Rng.int rng (n - a + 1))))
  in
  ignore (Server.handle_line alloc_server alloc_line);
  ignore (Server.handle_line alloc_server alloc_line);
  let w0 = Gc.minor_words () in
  ignore (Server.handle_line alloc_server alloc_line);
  let alloc_words = Gc.minor_words () -. w0 in
  Server.close alloc_server;
  let alloc_budget = 20_000. +. (200. *. float alloc_k) in
  Printf.printf
    "steady-state exact request (k=%d): %.0f minor words (O(k) budget %.0f)\n"
    alloc_k alloc_words alloc_budget;
  clean ();
  let oc = open_out "BENCH_PR9.json" in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  \"dataset\": %S,\n" quick
    (Dataset.name ds);
  Printf.fprintf oc "  \"recommended_domain_count\": %d,\n" cores;
  Printf.fprintf oc "  \"requests_per_row\": %d,\n" requests;
  Printf.fprintf oc
    "  \"exact_k1\": {\"p50_us\": %.2f},\n" (exact1_p50 *. 1e6);
  Printf.fprintf oc
    "  \"exact_k80\": {\"qps\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f},\n"
    exact_qps (exact_p50 *. 1e6) (exact_p99 *. 1e6);
  Printf.fprintf oc
    "  \"bound_k80\": {\"qps\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f},\n"
    bound_qps (bound_p50 *. 1e6) (bound_p99 *. 1e6);
  Printf.fprintf oc "  \"rung_p50_ratio\": %.3f,\n" rung_ratio;
  Printf.fprintf oc
    "  \"batch_kernel\": {\"fast_ns_per_range\": %.1f, \"twin_ns_per_range\": \
     %.1f, \"speedup\": %.2f},\n"
    (fast_s *. 1e9 /. float (iters * k))
    (twin_s *. 1e9 /. float (iters * k))
    kernel_speedup;
  Printf.fprintf oc
    "  \"multi_client\": {\"qps_1\": %.1f, \"qps_4\": %.1f, \"ratio\": %.3f, \
     \"routed_ok\": %b, \"restart_byte_identical\": %b},\n"
    qps1 qps4 qps_ratio routed_ok restart_identical;
  Printf.fprintf oc
    "  \"request_alloc\": {\"k\": %d, \"minor_words\": %.0f, \"budget\": %.0f}\n}\n"
    alloc_k alloc_words alloc_budget;
  close_out oc;
  Printf.printf "\n(wrote BENCH_PR9.json)\n";
  let verdicts =
    [
      {
        E.Claims.claim_id = "G9a";
        description =
          "at matched geometry (80 ranges per request) the bound rung's p50 \
           is within 4x of the exact rung's p50 (BENCH_PR7's ~21x compared \
           mismatched geometries)";
        measured =
          Printf.sprintf
            "exact@80 p50 %.1f us, bound@80 p50 %.1f us: %.2fx (exact@1 p50 \
             %.1f us)%s"
            (exact_p50 *. 1e6) (bound_p50 *. 1e6) rung_ratio
            (exact1_p50 *. 1e6)
            (if rung_timeable then ""
             else " (timing waived: sub-microsecond p50)");
        holds =
          ((not rung_timeable) || rung_ratio <= 4.)
          && exact_wrong = 0 && bound_wrong = 0;
      };
      {
        E.Claims.claim_id = "G9b";
        description =
          "the vectorized batch-evaluation kernel beats the per-range \
           estimator twin by >= 1.5x at k=80";
        measured =
          Printf.sprintf "batch %.1f ns/range vs twin %.1f ns/range: %.2fx%s"
            (fast_s *. 1e9 /. float (iters * k))
            (twin_s *. 1e9 /. float (iters * k))
            kernel_speedup
            (if kernel_timeable then ""
             else " (timing waived: baseline under 50ms)");
        holds = (not kernel_timeable) || kernel_speedup >= 1.5;
      };
      {
        E.Claims.claim_id = "G9c";
        description =
          "4 pipelined clients sustain at least the 1-client aggregate qps \
           (median over alternating round pairs; timing half, waived below \
           2 cores); every response is routed to the asking connection and \
           per-client response streams are byte-identical across a kill -9 \
           restart (never waived)";
        measured =
          Printf.sprintf
            "best qps 1-client %.0f, 4-client %.0f; median of %d pair ratios \
             %.2fx%s; routed_ok=%b, restart_identical=%b"
            qps1 qps4 rounds qps_ratio
            (if cores < 2 then
               Printf.sprintf " (timing waived: runtime reports %d core(s))"
                 cores
             else "")
            routed_ok restart_identical;
        holds = (cores < 2 || qps_ratio >= 1.0) && routed_ok && restart_identical;
      };
      {
        E.Claims.claim_id = "G9d";
        description =
          "a steady-state exact request allocates O(k) minor words through \
           the whole server path (never waived; the @serve gate enforces \
           the same budget)";
        measured =
          Printf.sprintf "k=%d: %.0f minor words (budget %.0f)" alloc_k
            alloc_words alloc_budget;
        holds = alloc_words <= alloc_budget;
      };
    ]
  in
  print_string (E.Claims.table (record verdicts))

(* G10: the streaming ingestion path.  Four measurements against a
   WAL-backed stream in a scratch store:

   (a) ingest throughput through the full durability path — every
   batch is CRC-framed, appended and fsynced before the ack, then
   folded into the incremental moment tables (G10a, recorded; the
   >= 5k deltas/s floor is timing-waived when the sweep is
   untimeable).

   (b) restart no-loss determinism: abandon the in-memory stream
   after the last ack, resume from the store (manifest + WAL replay),
   and every value and every per-segment staleness figure must be
   bit-identical to the in-memory state (G10b, never waived).

   (c) the stale-segment accuracy bound: a stale synopsis keeps its
   construction-time boundary estimators while the stored exact
   interior totals track the data, so its worst-case range error can
   exceed the pre-ingest worst case by at most the ingested |delta|
   mass (THEORY: est_stale - truth_new = (est_pre - truth_old) -
   delta_in_boundary_parts).  Measured over every one of the
   n(n+1)/2 ranges (G10c, never waived).

   (d) rebuild determinism: refresh rebuilds the dirty segments and
   the result must be byte-identical to a from-scratch segmented
   batch build of the current data under the same plan and grants
   (G10d, never waived — the PR's acceptance criterion).

   Raw numbers go to BENCH_PR10.json. *)
let stream_bench () =
  section "G10: streaming ingestion (WAL-acked deltas, staleness, merge)";
  let module Stream = Rs_core.Stream in
  let module Store = Rs_core.Store in
  let module Seg = Rs_core.Segmented in
  let module Prefix = Rs_util.Prefix in
  let module Rng = Rs_dist.Rng in
  let module Mclock = Rs_util.Mclock in
  let ds = Dataset.generate "zipf-256" in
  let n = Dataset.n ds in
  let config =
    {
      Stream.default_config with
      Stream.method_name = "a0";
      budget_words = 96;
      segments = 8;
      stale_threshold = 0.;
      options;
    }
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rs_bench_stream10.%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let clean () = if Sys.file_exists dir then rm_rf dir in
  clean ();
  Unix.mkdir dir 0o755;
  (* (a) ingest throughput through the WAL-acked path. *)
  let store = Store.open_dir dir in
  let t = Stream.create ~config ~store ds in
  let batches = if quick then 48 else 384 in
  let per_batch = 64 in
  let rng = Rng.create 0x57E4 in
  let shadow = Array.copy (Dataset.values ds) in
  let total_mass = ref 0. in
  let t0 = Mclock.now () in
  for _ = 1 to batches do
    let deltas =
      Array.init per_batch (fun _ ->
          let i = 1 + Rng.int rng n in
          let d = Rng.float rng *. 2. in
          (i, d))
    in
    Array.iter
      (fun (i, d) ->
        shadow.(i - 1) <- shadow.(i - 1) +. d;
        total_mass := !total_mass +. Float.abs d)
      deltas;
    ignore (Stream.ingest t deltas)
  done;
  let ingest_s = Mclock.now () -. t0 in
  let deltas_total = batches * per_batch in
  let throughput = float deltas_total /. ingest_s in
  let ingest_timeable = ingest_s >= 0.05 in
  Printf.printf
    "ingest: %d deltas in %d fsynced batches, %.3f s  ->  %.0f deltas/s \
     (%.1f us/batch ack)\n"
    deltas_total batches ingest_s throughput
    (ingest_s *. 1e6 /. float batches);
  (* (b) restart no-loss determinism: resume from the store only. *)
  let live_staleness = Array.copy (Stream.staleness t) in
  let resumed =
    match Stream.resume (Store.open_dir dir) with
    | Ok (Some t') -> t'
    | Ok None -> failwith "stream manifest missing after create"
    | Error e -> failwith (Rs_util.Error.to_string e)
  in
  let bits = Int64.bits_of_float in
  let no_loss = ref true in
  Array.iteri
    (fun j v ->
      if bits v <> bits (Stream.value resumed (j + 1)) then no_loss := false)
    shadow;
  Array.iteri
    (fun i d ->
      if bits d <> bits (Stream.staleness resumed).(i) then no_loss := false)
    live_staleness;
  Printf.printf "restart: %d acked deltas replayed, bit-identical %b\n"
    deltas_total !no_loss;
  (* (c) the stale accuracy bound, measured over every range. *)
  let t2 = Stream.create ~config ds in
  let truth_old = Prefix.create (Stream.data t2) in
  let max_err syn truth =
    let est = Seg.estimator syn in
    let worst = ref 0. in
    for a = 1 to n do
      for b = a to n do
        let e = Float.abs (est ~a ~b -. Prefix.range_sum truth ~a ~b) in
        if e > !worst then worst := e
      done
    done;
    !worst
  in
  let pre_err = max_err (Stream.synopsis t2) truth_old in
  let rng = Rng.create 0xD17 in
  let deltas =
    Array.init 96 (fun _ -> (1 + Rng.int rng n, Rng.float rng *. 4.))
  in
  ignore (Stream.ingest t2 deltas);
  let mass = Array.fold_left (fun acc (_, d) -> acc +. Float.abs d) 0. deltas in
  let truth_new = Prefix.create (Stream.data t2) in
  let stale_err = max_err (Stream.synopsis t2) truth_new in
  (* float-rounding slack only: the inequality itself is exact *)
  let stale_bound = pre_err +. mass +. (1e-9 *. (pre_err +. mass)) in
  let bound_holds = stale_err <= stale_bound in
  ignore (Stream.refresh t2);
  let fresh_err = max_err (Stream.synopsis t2) truth_new in
  Printf.printf
    "stale accuracy: pre-ingest max err %.3f, |delta| mass %.3f, stale max \
     err %.3f (bound %.3f, holds %b), refreshed max err %.3f\n"
    pre_err mass stale_err (pre_err +. mass) bound_holds fresh_err;
  (* (d) rebuild determinism against a from-scratch batch build. *)
  let refresh_t0 = Mclock.now () in
  let r = Stream.refresh ~force:true resumed in
  let refresh_s = Mclock.now () -. refresh_t0 in
  let batch_bytes =
    let cfg = Stream.config resumed in
    let plan = Stream.plan resumed in
    let grants =
      Seg.uniform_split plan ~method_name:cfg.Stream.method_name
        ~budget_words:cfg.Stream.budget_words
    in
    let data = Stream.data resumed in
    let syns =
      Array.mapi
        (fun i (lo, hi) ->
          let slice = Array.sub data (lo - 1) (hi - lo + 1) in
          let sds =
            Dataset.of_floats
              ~name:(Printf.sprintf "%s.seg%d" cfg.Stream.entry_prefix i)
              slice
          in
          Builder.build sds ~method_name:cfg.Stream.method_name
            ~budget_words:grants.(i))
        plan.Seg.bounds
    in
    Seg.to_string (Seg.make (Stream.dataset resumed) plan syns)
  in
  let rebuild_identical =
    Seg.to_string (Stream.synopsis resumed) = batch_bytes
  in
  Printf.printf
    "refresh: %d segments rebuilt in %.3f s, byte-identical to the \
     from-scratch batch build %b\n"
    (List.length r.Stream.rebuilt)
    refresh_s rebuild_identical;
  clean ();
  let oc = open_out "BENCH_PR10.json" in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  \"dataset\": %S,\n" quick
    (Dataset.name ds);
  Printf.fprintf oc
    "  \"ingest\": {\"deltas\": %d, \"batches\": %d, \"seconds\": %.4f, \
     \"deltas_per_s\": %.1f},\n"
    deltas_total batches ingest_s throughput;
  Printf.fprintf oc "  \"restart_no_loss\": %b,\n" !no_loss;
  Printf.fprintf oc
    "  \"stale_accuracy\": {\"pre_err\": %.4f, \"delta_mass\": %.4f, \
     \"stale_err\": %.4f, \"fresh_err\": %.4f, \"bound_holds\": %b},\n"
    pre_err mass stale_err fresh_err bound_holds;
  Printf.fprintf oc
    "  \"rebuild\": {\"segments\": %d, \"seconds\": %.4f, \"byte_identical\": \
     %b}\n}\n"
    (List.length r.Stream.rebuilt)
    refresh_s rebuild_identical;
  close_out oc;
  Printf.printf "\n(wrote BENCH_PR10.json)\n";
  let verdicts =
    [
      {
        E.Claims.claim_id = "G10a";
        description =
          "the WAL-acked ingest path (CRC frame + fsync before ack + \
           incremental moment fold) sustains >= 5k deltas/s (timing-waived \
           when the sweep is untimeable)";
        measured =
          Printf.sprintf "%d deltas in %.3f s: %.0f deltas/s%s" deltas_total
            ingest_s throughput
            (if ingest_timeable then ""
             else " (timing waived: sweep under 50ms)");
        holds = (not ingest_timeable) || throughput >= 5000.;
      };
      {
        E.Claims.claim_id = "G10b";
        description =
          "abandoning the in-memory stream and resuming from the store \
           (manifest + WAL replay) loses no acked delta: values and \
           per-segment staleness bit-identical (never waived)";
        measured =
          Printf.sprintf "%d acked deltas, bit-identical=%b" deltas_total
            !no_loss;
        holds = !no_loss;
      };
      {
        E.Claims.claim_id = "G10c";
        description =
          "a stale segment's worst-case range error exceeds the pre-ingest \
           worst case by at most the ingested |delta| mass, over all \
           n(n+1)/2 ranges (never waived)";
        measured =
          Printf.sprintf
            "pre %.3f + mass %.3f >= stale %.3f (refreshed: %.3f)" pre_err
            mass stale_err fresh_err;
        holds = bound_holds;
      };
      {
        E.Claims.claim_id = "G10d";
        description =
          "refreshed segments are byte-identical to a from-scratch \
           segmented batch build of the current data under the same plan \
           and grants (never waived)";
        measured =
          Printf.sprintf "%d segments rebuilt, byte_identical=%b"
            (List.length r.Stream.rebuilt)
            rebuild_identical;
        holds = rebuild_identical;
      };
    ]
  in
  print_string (E.Claims.table (record verdicts))

(* P8: the unboxed Bigarray DP kernels and the pool dispatch cutover.
   Three (kernel, jobs) configurations of the exact OPT-A DP, sharing
   one UB seed (best-of-3 wall times): the fused Fast kernel vs the
   iter+update_min Reference baseline at jobs=1, and Fast at jobs=4
   under the measured cutover.  Equality — SSE bits, state counts,
   snapshot bytes across kernels, and a cross-jobs cross-kernel
   resume — is asserted unconditionally; the two timing halves carry
   the usual hardware waivers (a sub-50ms baseline is untimeable, and
   a sub-2-core machine cannot show a parallel win).  An extra
   instrumented jobs=4 pass collects the pool.chunk_span histogram —
   the dispatch-granularity evidence behind the cutover.  Raw numbers
   go to BENCH_PR8.json. *)
let kernel_bench () =
  section "P8: unboxed DP kernels (fast vs reference) + pool cutover";
  let module Opt_a = Rs_histogram.Opt_a in
  let module Metrics = Rs_util.Metrics in
  let module Governor = Rs_util.Governor in
  let cores = Domain.recommended_domain_count () in
  let max_states = if quick then 2_000_000 else 60_000_000 in
  let buckets = if quick then 6 else 8 in
  let rec sweep_at x =
    try (x, E.Scalability.run_kernels ~buckets ~max_states ~x ())
    with Opt_a.Too_many_states _ when x < 1024 -> sweep_at (x * 4)
  in
  let x, rows = sweep_at (if quick then 32 else 1) in
  if x > 1 then
    Printf.printf "(exact DP on x=%d-rounded data to fit max_states=%d)\n\n" x
      max_states;
  print_string (E.Scalability.kernel_table rows);
  let find kernel jobs =
    match
      List.find_opt
        (fun (r : E.Scalability.kernel_row) ->
          r.E.Scalability.k_kernel = kernel && r.E.Scalability.k_jobs = jobs)
        rows
    with
    | Some r -> r
    | None -> failwith ("P8: missing row " ^ kernel)
  in
  let fast1 = find "fast" 1 in
  let ref1 = find "reference" 1 in
  let fast4 = find "fast" 4 in
  let results_identical =
    List.for_all
      (fun (r : E.Scalability.kernel_row) ->
        Float.equal r.E.Scalability.k_sse fast1.E.Scalability.k_sse
        && r.E.Scalability.k_states = fast1.E.Scalability.k_states)
      rows
  in
  let kernel_speedup =
    if fast1.E.Scalability.k_seconds > 0. then
      ref1.E.Scalability.k_seconds /. fast1.E.Scalability.k_seconds
    else 1.
  in
  let jobs4_speedup =
    if fast4.E.Scalability.k_seconds > 0. then
      fast1.E.Scalability.k_seconds /. fast4.E.Scalability.k_seconds
    else 1.
  in
  (* chunk_span evidence: one instrumented (untimed) jobs=4 pass. *)
  let chunks, span_buckets, span_max =
    Metrics.reset ();
    Metrics.enable ();
    ignore
      (E.Scalability.run_kernels ~buckets ~max_states ~x ~repeats:1
         ~configs:[ (Opt_a.Fast, 4) ] ());
    let report = Metrics.report () in
    Metrics.disable ();
    Metrics.reset ();
    let chunks =
      Option.value ~default:0
        (List.assoc_opt "pool.chunks" report.Metrics.r_counters)
    in
    match List.assoc_opt "pool.chunk_span" report.Metrics.r_histograms with
    | Some h -> (chunks, h.Metrics.h_buckets, h.Metrics.h_max)
    | None -> (chunks, [], 0.)
  in
  Printf.printf
    "\npool dispatch granularity at jobs=4: %d chunk barriers, widest span \
     %.0f cells\n"
    chunks span_max;
  (* snapshot bytes across kernels + cross-jobs cross-kernel resume, on
     a small governed instance (the heavyweight sweeps live in @fault). *)
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let p_small = Dataset.prefix (Dataset.generate "zipf-64") in
  let sb = 4 in
  (* pin key_cap so the governed UB-seeding pass is skipped and every
     poll lands in the exact DP, where snapshots exist *)
  let kc = 100_000 in
  let base = Opt_a.build_exact ~key_cap:kc p_small ~buckets:sb in
  let snapshots_identical = ref true in
  let resume_identical = ref true in
  let interruptions = ref 0 in
  List.iter
    (fun budget ->
      let snap kernel =
        let path = Filename.temp_file "rs_p8" ".ckpt" in
        Sys.remove path;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            let governor =
              Governor.create ~deadline_mode:Governor.Snapshot
                ~poll_budget:budget ()
            in
            match
              Opt_a.build_exact ~kernel ~key_cap:kc ~governor
                ~checkpoint_path:path p_small ~buckets:sb
            with
            | _ -> None
            | exception Governor.Interrupted { checkpoint; _ } ->
                let bytes = read_file path in
                (* finish the interrupted run with the other kernel at
                   jobs=4 — resume is cross-kernel and cross-jobs *)
                let other =
                  if kernel = Opt_a.Fast then Opt_a.Reference else Opt_a.Fast
                in
                let r =
                  Opt_a.build_exact ~kernel:other ~key_cap:kc ~jobs:4
                    ~resume_from:checkpoint p_small ~buckets:sb
                in
                if
                  not
                    (Float.equal r.Opt_a.sse base.Opt_a.sse
                    && r.Opt_a.states = base.Opt_a.states)
                then resume_identical := false;
                Some bytes)
      in
      match (snap Opt_a.Fast, snap Opt_a.Reference) with
      | Some a, Some b ->
          incr interruptions;
          if a <> b then snapshots_identical := false
      | None, None -> ()
      | _ -> snapshots_identical := false)
    [ 2; 5; 9; 14 ];
  let snapshots_identical = !snapshots_identical && !interruptions > 0 in
  let resume_identical = !resume_identical && !interruptions > 0 in
  let oc = open_out "BENCH_PR8.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"recommended_domain_count\": %d,\n" cores;
  Printf.fprintf oc
    "  \"config\": {\"dataset\": \"paper\", \"x\": %d, \"buckets\": %d, \
     \"max_states\": %d, \"repeats\": 3},\n"
    x buckets max_states;
  Printf.fprintf oc "  \"kernels\": [\n";
  let last_i = List.length rows - 1 in
  List.iteri
    (fun i (r : E.Scalability.kernel_row) ->
      Printf.fprintf oc
        "    {\"kernel\": %S, \"jobs\": %d, \"seconds_best3\": %.6f, \"sse\": \
         %.17g, \"states\": %d}%s\n"
        r.E.Scalability.k_kernel r.E.Scalability.k_jobs
        r.E.Scalability.k_seconds r.E.Scalability.k_sse
        r.E.Scalability.k_states
        (if i = last_i then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"speedup_fast_vs_reference_jobs1\": %.4f,\n"
    kernel_speedup;
  Printf.fprintf oc "  \"speedup_jobs4_vs_jobs1\": %.4f,\n" jobs4_speedup;
  Printf.fprintf oc
    "  \"equality\": {\"sse_and_states\": %b, \"snapshot_bytes\": %b, \
     \"cross_jobs_cross_kernel_resume\": %b, \"interruptions\": %d},\n"
    results_identical snapshots_identical resume_identical !interruptions;
  Printf.fprintf oc "  \"chunk_span\": {\"chunks\": %d, \"max\": %.0f, \
                     \"buckets\": [" chunks span_max;
  let last_b = List.length span_buckets - 1 in
  List.iteri
    (fun i (le, count) ->
      Printf.fprintf oc "{\"le\": %s, \"count\": %d}%s"
        (if le = infinity then "\"inf\"" else Printf.sprintf "%.0f" le)
        count
        (if i = last_b then "" else ", "))
    span_buckets;
  Printf.fprintf oc "]}\n}\n";
  close_out oc;
  Printf.printf "\n(wrote BENCH_PR8.json)\n";
  let timeable = ref1.E.Scalability.k_seconds >= 0.05 in
  let verdicts =
    [
      {
        E.Claims.claim_id = "P8a";
        description =
          "the fused unboxed kernel beats the reference formulation by >= \
           1.5x on the exact OPT-A DP at jobs=1";
        measured =
          Printf.sprintf "fast %.3fs vs reference %.3fs: %.2fx%s"
            fast1.E.Scalability.k_seconds ref1.E.Scalability.k_seconds
            kernel_speedup
            (if timeable then ""
             else " (timing waived: baseline under 50ms)");
        holds = (not timeable) || kernel_speedup >= 1.5;
      };
      {
        E.Claims.claim_id = "P8b";
        description =
          "kernels and job counts are bit-identical: same SSE bits and state \
           counts, byte-identical snapshots, and an interrupted run resumes \
           across kernel and job count (never waived)";
        measured =
          Printf.sprintf
            "sse/states identical=%b, snapshot bytes identical=%b, \
             cross-resume identical=%b (%d interruptions)"
            results_identical snapshots_identical resume_identical
            !interruptions;
        holds = results_identical && snapshots_identical && resume_identical;
      };
      {
        E.Claims.claim_id = "P8c";
        description =
          "under the dispatch cutover, jobs=4 is no slower than jobs=1 on \
           the same kernel (the BENCH_PR3 regression, fixed)";
        measured =
          Printf.sprintf "jobs=4 %.3fs vs jobs=1 %.3fs: %.2fx (%d chunk \
                          barriers, widest span %.0f)%s"
            fast4.E.Scalability.k_seconds fast1.E.Scalability.k_seconds
            jobs4_speedup chunks span_max
            (if cores < 2 then
               Printf.sprintf " (timing waived: runtime reports %d core(s))"
                 cores
             else "");
        holds = cores < 2 || jobs4_speedup >= 1.0;
      };
    ]
  in
  print_string (E.Claims.table (record verdicts))

(* --- Bechamel timing benchmarks: one Test.make per table --- *)

let bechamel_tests () =
  let open Bechamel in
  let ds = Dataset.paper () in
  let p = Dataset.prefix ds in
  let data = Dataset.values ds in
  let ds511 = Dataset.generate "zipf-511" in
  let p511 = Dataset.prefix ds511 in
  let equi16 = Rs_histogram.Baselines.equi_width p ~buckets:16 in
  [
    (* F1's workhorse: the O(n²B) bucket DP (A0 costs). *)
    Test.make ~name:"F1/a0-dp n=127 B=12"
      (Staged.stage (fun () -> ignore (Rs_histogram.A0.build p ~buckets:12)));
    (* C1: the POINT-OPT baseline construction. *)
    Test.make ~name:"C1/point-opt n=127 B=12"
      (Staged.stage (fun () -> ignore (Rs_histogram.Vopt.build p ~buckets:12)));
    (* C2: SAP1's DP with regression costs. *)
    Test.make ~name:"C2/sap1 n=127 B=9"
      (Staged.stage (fun () -> ignore (Rs_histogram.Sap1.build p ~buckets:9)));
    (* C3: SAP0's DP. *)
    Test.make ~name:"C3/sap0 n=127 B=16"
      (Staged.stage (fun () -> ignore (Rs_histogram.Sap0.build p ~buckets:16)));
    (* C4: normal equations + SPD solve of the reopt step. *)
    Test.make ~name:"C4/reopt n=127 B=16"
      (Staged.stage (fun () -> ignore (Rs_histogram.Reopt.apply p equi16)));
    (* C5: the near-linear range-optimal wavelet selection (Thm 9). *)
    Test.make ~name:"C5/wave-range-opt n=127 B=24"
      (Staged.stage (fun () ->
           ignore (Rs_wavelet.Synopsis.range_optimal data ~b:24)));
    (* T4: one OPT-A-ROUNDED run at a coarse grid. *)
    Test.make ~name:"T4/opt-a-rounded x=64 B=6"
      (Staged.stage (fun () ->
           ignore
             (Rs_histogram.Opt_a.build_rounded ~max_states:5_000_000 p
                ~buckets:6 ~x:64)));
    (* S1: a polynomial construction at the larger domain. *)
    Test.make ~name:"S1/sap0 n=511 B=10"
      (Staged.stage (fun () -> ignore (Rs_histogram.Sap0.build p511 ~buckets:10)));
  ]

let run_bechamel () =
  let open Bechamel in
  section "Bechamel construction-time benchmarks";
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let quota = if quick then Time.second 0.2 else Time.second 1.0 in
  let cfg = Benchmark.cfg ~limit:200 ~quota ~stabilize:false () in
  let grouped = Test.make_grouped ~name:"tables" (bechamel_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ ns ] ->
          if ns >= 1e9 then Printf.printf "%-42s %10.3f s/run\n" name (ns /. 1e9)
          else if ns >= 1e6 then
            Printf.printf "%-42s %10.3f ms/run\n" name (ns /. 1e6)
          else Printf.printf "%-42s %10.3f us/run\n" name (ns /. 1e3)
      | _ -> Printf.printf "%-42s (no estimate)\n" name)
    rows

let () =
  Rs_util.Logging.setup_from_env ();
  quality_tables ();
  durability_check ();
  jobs_sweep ();
  engine_bench ();
  obs_overhead ();
  segmented_bench ();
  serve_bench ();
  serve_batch_bench ();
  stream_bench ();
  kernel_bench ();
  if not no_bechamel then run_bechamel ();
  match List.rev !failed_claims with
  | [] -> Printf.printf "\ndone.\n"
  | failed ->
      Printf.printf "\nFAILED: %d claim verdict(s) did not hold:\n"
        (List.length failed);
      List.iter
        (fun (v : E.Claims.verdict) ->
          Printf.printf "  %-4s %s\n       measured: %s\n" v.E.Claims.claim_id
            v.E.Claims.description v.E.Claims.measured)
        failed;
      exit 1
