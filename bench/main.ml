(* Paper-evaluation harness.

   Regenerates every table and figure of the paper's evaluation
   (Section 4 and the Section-5 experiment) plus the extension tables
   (W1, D2, S1) as quality tables printed to stdout, with a claim
   verdict under each table; exits 1 when any verdict fails.  Timing
   lives in perfbench/ (see BENCHMARK.json) and engineering contracts
   in the test suites, so nothing here compares wall-clock times.

   Flags:
     --quick        small sweeps and a reduced OPT-A state budget
     --csv          also print the Figure-1 rows as CSV *)

module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module E = Rs_experiments

let quick = Array.exists (( = ) "--quick") Sys.argv
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


let () =
  Rs_util.Logging.setup_from_env ();
  quality_tables ();
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
