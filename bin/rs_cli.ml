(* range_synopsis — command-line interface.

   Subcommands:
     generate   write a named synthetic dataset to a file
     info       describe a dataset
     build      build a synopsis and print its summary
     query      answer range queries from a synopsis, with exact values
     evaluate   compare methods on a dataset (SSE & metrics)
     figure1    reproduce the paper's Figure 1 sweep
     claims     evaluate the paper's prose claims (C1..C5)
     reopt      the Section-5 re-optimization study (C4)
     rounding   the OPT-A-ROUNDED trade-off study (T4)
     scale      scalability sweep of the polynomial methods (S1)
     store      durable synopsis store (list / put / fsck)

   Exit codes follow Rs_util.Error.exit_code: 0 success, 2 bad input
   (dataset, method, IO), 3 corrupt synopsis or checkpoint, 4 state
   budget or deadline exhausted, 5 interrupted but resumable (a
   snapshot was written; re-run with --resume), 6 completed but
   degraded (a --segments build delivered a cheaper method than
   requested on some segment) — cmdliner reserves 124/125 for CLI
   errors. *)

open Cmdliner
module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module Synopsis = Rs_core.Synopsis
module Error = Rs_util.Error
module E = Rs_experiments

(* --- shared arguments --- *)

let dataset_arg =
  let doc =
    "Dataset: a file path (one frequency per line) or a generator name \
     (paper, zipf-<n>, mixture-<n>, uniform-<n>)."
  in
  Arg.(value & opt string "paper" & info [ "d"; "data" ] ~docv:"DATA" ~doc)

let load_dataset spec =
  if Sys.file_exists spec then Error.get (Dataset.load_result spec)
  else Dataset.generate spec

let budget_arg =
  let doc = "Storage budget in machine words." in
  Arg.(value & opt int 32 & info [ "b"; "budget" ] ~docv:"WORDS" ~doc)

let method_arg =
  let doc =
    Printf.sprintf "Construction method, one of: %s."
      (String.concat ", " Builder.methods)
  in
  Arg.(value & opt string "opt-a" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let methods_arg =
  let doc = "Comma-separated list of methods (default: a representative set)." in
  Arg.(
    value
    & opt (list string) [ "equi-width"; "point-opt"; "a0"; "sap0"; "sap1"; "wave-range-opt" ]
    & info [ "methods" ] ~docv:"METHODS" ~doc)

let quick_arg =
  let doc = "Reduce sweep sizes and OPT-A state budgets (fast sanity run)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* --jobs N beats RS_JOBS beats 1; every count builds the same bytes,
   so parallelism is safe to default from the environment.  A count
   outside 1..128 (OCaml 5 runs at most 128 domains) or an RS_JOBS that
   is not an integer is refused before any dataset is read. *)
let max_jobs = 128

let jobs_arg =
  let doc =
    Printf.sprintf
      "Worker domains for the level-parallel DP engines (opt-a, \
       opt-a-rounded, sap0, sap1, point-opt, v-optimal), 1..%d.  Results \
       are bit-identical for any value.  Defaults to $(b,RS_JOBS), falling \
       back to 1."
      max_jobs
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs flag =
  let refuse msg = Error.raise_error (Error.Invalid_input msg) in
  match flag with
  | Some j when j >= 1 && j <= max_jobs -> j
  | Some j -> refuse (Printf.sprintf "--jobs must be in 1..%d (got %d)" max_jobs j)
  | None -> (
      match Sys.getenv_opt "RS_JOBS" with
      | None -> 1
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some j when j >= 1 && j <= max_jobs -> j
          | _ ->
              refuse
                (Printf.sprintf "RS_JOBS must be an integer in 1..%d (got %S)"
                   max_jobs s)))

let opt_a_states_arg =
  let doc =
    "State budget for the exact OPT-A dynamic program (default 6e7; the \
     staged builder falls down the degradation ladder beyond it)."
  in
  Arg.(value & opt (some int) None & info [ "opt-a-states" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock deadline in seconds for synopsis construction; the opt-a \
     ladder degrades to cheaper rungs (opt-a-rounded, then a0) rather than \
     overrun it."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let options_of jobs quick states =
  let base =
    if quick then
      { Builder.default_options with Builder.opt_a_max_states = 2_000_000 }
    else Builder.default_options
  in
  let base = { base with Builder.jobs = resolve_jobs jobs } in
  match states with
  | Some s -> { base with Builder.opt_a_max_states = s }
  | None -> base

let options_of_quick quick = options_of None quick None

(* Typed errors become distinct exit codes (see Rs_util.Error.exit_code);
   everything the library reports lands here as an Error.t.  [wrap_code]
   lets a command pick its own success code (the segmented build's
   completed-with-degradation 6). *)
let wrap_code f =
  match Error.guard f with
  | Ok code -> code
  | Error e ->
      Printf.eprintf "rs_cli: %s\n%!" (Error.to_string e);
      Error.exit_code e

let wrap f =
  wrap_code (fun () ->
      f ();
      0)

let exits =
  Cmd.Exit.defaults
  @ [
      Cmd.Exit.info 2 ~doc:"on bad input (dataset, unknown method, IO).";
      Cmd.Exit.info 3 ~doc:"on a corrupt synopsis or checkpoint file.";
      Cmd.Exit.info 4 ~doc:"on an exhausted state budget or deadline.";
      Cmd.Exit.info 5
        ~doc:
          "interrupted but resumable: the deadline expired and a checkpoint \
           was written; re-run with --resume to continue.";
      Cmd.Exit.info 6
        ~doc:
          "completed with degradation: a --segments build delivered a \
           cheaper method than requested on one or more segments (see the \
           per-segment report).";
    ]

let command name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term

let print_report built =
  match built.Builder.report with
  | Some r when r.Builder.delivered <> r.Builder.requested ->
      List.iter print_endline (Builder.report_lines r)
  | _ -> ()

(* --- generate --- *)

let generate_cmd =
  let name_arg =
    Arg.(value & opt string "zipf-256" & info [ "g"; "generator" ] ~docv:"NAME"
           ~doc:"Generator name (paper, zipf-<n>, mixture-<n>, uniform-<n>).")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Output file.")
  in
  let run name out =
    wrap (fun () ->
        let ds = Dataset.generate name in
        Dataset.save ds out;
        Printf.printf "wrote %s: n=%d total=%.0f\n" out (Dataset.n ds)
          (Dataset.total ds))
  in
  command "generate" ~doc:"Write a synthetic dataset to a file."
    Term.(const run $ name_arg $ out_arg)

(* --- info --- *)

let info_cmd =
  let run data =
    wrap (fun () ->
        let ds = load_dataset data in
        let v = Dataset.values ds in
        let mx = Array.fold_left Float.max 0. v in
        Printf.printf "dataset %s\n  n        %d\n  total    %.0f\n  max      %.0f\n  integral %b\n"
          (Dataset.name ds) (Dataset.n ds) (Dataset.total ds) mx
          (Dataset.is_integral ds))
  in
  command "info" ~doc:"Describe a dataset." Term.(const run $ dataset_arg)

(* --- build --- *)

let build_cmd =
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Persist the synopsis to a file (see the Codec format).")
  in
  let checkpoint_dir_arg =
    Arg.(value & opt (some string) None
           & info [ "checkpoint-dir" ] ~docv:"DIR"
               ~doc:"Write resumable OPT-A snapshots to $(docv)/opt-a.ckpt. \
                     With --deadline, expiry then exits with code 5 (snapshot \
                     written) instead of degrading down the ladder.")
  in
  let resume_arg =
    Arg.(value & flag
           & info [ "resume" ]
               ~doc:"Resume from the snapshot in --checkpoint-dir, replaying \
                     from the last completed DP row (bit-identical result).")
  in
  let checkpoint_every_arg =
    Arg.(value & opt (some float) None
           & info [ "checkpoint-every" ] ~docv:"SECONDS"
               ~doc:"Also snapshot periodically while the DP runs (crash \
                     safety, not just deadline safety).")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
           & info [ "metrics-out" ] ~docv:"FILE"
               ~doc:"Enable the metrics registry for this build and write the \
                     JSON report (DP states explored/pruned, beam \
                     truncations, ladder rungs, snapshot and pool counters) \
                     to $(docv).  RS_METRICS=1 instead dumps the report to \
                     stderr.")
  in
  let segments_arg =
    Arg.(value & opt (some int) None
           & info [ "segments" ] ~docv:"S"
               ~doc:"Segmented build: split the domain into $(docv) contiguous \
                     segments and build one synopsis per segment under the \
                     fault-tolerant supervisor (per-segment retry with \
                     backoff, degradation down the method ladder, crash-safe \
                     resume via --checkpoint-dir).  Ranges are answered by \
                     composition (exact interior totals + boundary \
                     estimates).  Exits 6 when the build completed but some \
                     segment degraded.")
  in
  let planner_arg =
    Arg.(value
           & opt (enum [ ("greedy", `Greedy); ("uniform", `Uniform) ]) `Greedy
           & info [ "planner" ] ~docv:"PLANNER"
               ~doc:"Cross-segment budget planner for --segments: $(b,greedy) \
                     grants words where the marginal range-SSE drop is \
                     largest; $(b,uniform) splits evenly.")
  in
  let run_segmented ~data ~m ~budget ~options ~deadline ~ckpt_dir ~resume
      ~every ~metrics_out ~save ~planner ~segments =
    if save <> None then
      Error.raise_error
        (Error.Invalid_input
           "--save is not supported with --segments (use --checkpoint-dir: \
            the store keeps one entry per segment)");
    let ds = load_dataset data in
    let res, dt =
      E.Timing.time (fun () ->
          Rs_core.Supervisor.build ~options ?manifest_dir:ckpt_dir ~resume
            ?deadline ?checkpoint_every:every ~planner ds ~method_name:m
            ~budget_words:budget ~segments)
    in
    let t, report = Error.get res in
    print_endline (Rs_core.Segmented.describe t);
    List.iter print_endline (Rs_core.Supervisor.report_lines report);
    Printf.printf "built in %.3fs\n" dt;
    Printf.printf "SSE over all ranges: %.6g\n" (Rs_core.Segmented.sse ds t);
    (match metrics_out with
    | Some path ->
        Rs_util.Metrics.write_json path;
        Printf.printf "metrics written to %s\n" path
    | None -> ());
    if Rs_core.Supervisor.degraded report then 6 else 0
  in
  let run data m budget quick states jobs deadline save ckpt_dir resume every
      metrics_out segments planner =
    wrap_code (fun () ->
        let options = options_of jobs quick states in
        if metrics_out <> None then begin
          Rs_util.Metrics.enable ();
          Rs_util.Trace.enable ()
        end;
        match segments with
        | Some segments ->
            if resume && ckpt_dir = None then
              Error.raise_error
                (Error.Invalid_input "--resume requires --checkpoint-dir");
            run_segmented ~data ~m ~budget ~options ~deadline ~ckpt_dir ~resume
              ~every ~metrics_out ~save ~planner ~segments
        | None ->
        let checkpoint_path =
          Option.map
            (fun dir ->
              (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
               with Unix.Unix_error (e, _, _) ->
                 Error.raise_error
                   (Error.Io_failure
                      { path = dir; reason = Unix.error_message e }));
              Filename.concat dir "opt-a.ckpt")
            ckpt_dir
        in
        let resume_from =
          if not resume then None
          else
            match checkpoint_path with
            | Some _ as p -> p
            | None ->
                Error.raise_error
                  (Error.Invalid_input "--resume requires --checkpoint-dir")
        in
        let ds = load_dataset data in
        let built, dt =
          E.Timing.time (fun () ->
              Error.get
                (Builder.build_result ~options ?deadline ?checkpoint_path
                   ?resume_from ?checkpoint_every:every ds ~method_name:m
                   ~budget_words:budget))
        in
        let s = built.Builder.synopsis in
        print_endline (Synopsis.describe s);
        print_report built;
        Printf.printf "built in %.3fs\n" dt;
        Printf.printf "SSE over all ranges: %.6g\n" (Synopsis.sse ds s);
        (match save with
        | Some path ->
            Rs_core.Codec.save s path;
            Printf.printf "saved to %s\n" path
        | None -> ());
        (match metrics_out with
        | Some path ->
            Rs_util.Metrics.write_json path;
            Printf.printf "metrics written to %s\n" path
        | None -> ());
        0)
  in
  command "build" ~doc:"Build a synopsis and report its quality."
    Term.(
      const run $ dataset_arg $ method_arg $ budget_arg $ quick_arg
      $ opt_a_states_arg $ jobs_arg $ deadline_arg $ save_arg
      $ checkpoint_dir_arg $ resume_arg $ checkpoint_every_arg
      $ metrics_out_arg $ segments_arg $ planner_arg)

(* --- query --- *)

let query_cmd =
  let ranges_arg =
    Arg.(
      non_empty
      & pos_all (pair ~sep:':' int int) []
      & info [] ~docv:"A:B" ~doc:"Ranges to answer, e.g. 3:17.")
  in
  let synopsis_arg =
    Arg.(value & opt (some string) None & info [ "synopsis" ] ~docv:"FILE"
           ~doc:"Answer from a previously saved synopsis instead of building one.")
  in
  let run data m budget ranges synopsis =
    wrap (fun () ->
        let ds = load_dataset data in
        let s =
          match synopsis with
          | Some path -> Error.get (Rs_core.Codec.load_result path)
          | None ->
              (Error.get
                 (Builder.build_result ds ~method_name:m ~budget_words:budget))
                .Builder.synopsis
        in
        let p = Dataset.prefix ds in
        Printf.printf "%-14s %14s %14s %10s\n" "range" "exact" "estimate" "error";
        List.iter
          (fun (a, b) ->
            let exact = Rs_util.Prefix.range_sum p ~a ~b in
            let est = Synopsis.estimate s ~a ~b in
            Printf.printf "[%5d,%5d]  %14.0f %14.2f %9.2f%%\n" a b exact est
              (100. *. abs_float (est -. exact) /. Float.max 1. exact))
          ranges)
  in
  command "query" ~doc:"Answer range-sum queries from a synopsis."
    Term.(
      const run $ dataset_arg $ method_arg $ budget_arg $ ranges_arg
      $ synopsis_arg)

(* --- evaluate --- *)

let evaluate_cmd =
  let run data methods budget quick jobs deadline =
    wrap (fun () ->
        let options = options_of jobs quick None in
        let ds = load_dataset data in
        let reports = ref [] in
        let rows =
          List.map
            (fun m ->
              let built, dt =
                E.Timing.time (fun () ->
                    Error.get
                      (Builder.build_result ~options ?deadline ds
                         ~method_name:m ~budget_words:budget))
              in
              (match built.Builder.report with
              | Some r when r.Builder.delivered <> r.Builder.requested ->
                  reports := r :: !reports
              | _ -> ());
              let s = built.Builder.synopsis in
              let metrics = Synopsis.metrics ds s in
              [
                m;
                string_of_int (Synopsis.storage_words s);
                Rs_util.Text_table.float_cell ~prec:4 metrics.Rs_query.Error.sse;
                Rs_util.Text_table.float_cell ~prec:2 metrics.Rs_query.Error.rmse;
                Rs_util.Text_table.float_cell ~prec:2 metrics.Rs_query.Error.max_abs;
                Printf.sprintf "%.2f%%" (100. *. metrics.Rs_query.Error.mean_rel);
                Printf.sprintf "%.3fs" dt;
              ])
            methods
        in
        print_string
          (Rs_util.Text_table.render
             ~header:[ "method"; "words"; "sse"; "rmse"; "max err"; "mean rel"; "build" ]
             rows);
        List.iter
          (fun r -> List.iter print_endline (Builder.report_lines r))
          (List.rev !reports))
  in
  command "evaluate" ~doc:"Compare methods on one dataset and budget."
    Term.(
      const run $ dataset_arg $ methods_arg $ budget_arg $ quick_arg
      $ jobs_arg $ deadline_arg)

(* --- experiment commands --- *)

let figure1_cmd =
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Print long-form CSV instead of tables.")
  in
  let run data quick csv =
    wrap (fun () ->
        let options = options_of_quick quick in
        let ds = load_dataset data in
        let budgets = if quick then [ 8; 16; 24 ] else E.Figure1.default_budgets in
        let rows =
          E.Figure1.run ~options ~budgets ~methods:E.Figure1.extended_methods ds
        in
        if csv then print_string (E.Figure1.csv rows)
        else begin
          print_string (E.Figure1.table rows);
          print_newline ();
          print_string (E.Claims.table (E.Claims.all rows))
        end)
  in
  command "figure1" ~doc:"Reproduce Figure 1 (SSE vs storage)."
    Term.(const run $ dataset_arg $ quick_arg $ csv_arg)

let claims_cmd =
  let run data quick =
    wrap (fun () ->
        let options = options_of_quick quick in
        let ds = load_dataset data in
        let budgets = if quick then [ 8; 16; 24 ] else E.Figure1.default_budgets in
        let rows =
          E.Figure1.run ~options ~budgets ~methods:E.Figure1.extended_methods ds
        in
        print_string (E.Claims.table (E.Claims.all rows)))
  in
  command "claims" ~doc:"Evaluate the paper's prose claims (C1..C5)."
    Term.(const run $ dataset_arg $ quick_arg)

let reopt_cmd =
  let run data quick =
    wrap (fun () ->
        let options = options_of_quick quick in
        let ds = load_dataset data in
        let budgets = if quick then [ 8; 16 ] else [ 8; 16; 24; 32 ] in
        let rows = E.Reopt_study.run ~options ~budgets ds in
        print_string (E.Reopt_study.table rows);
        print_newline ();
        print_string (E.Claims.table [ E.Reopt_study.verdict rows ]))
  in
  command "reopt" ~doc:"Section-5 re-optimization study (C4)."
    Term.(const run $ dataset_arg $ quick_arg)

let rounding_cmd =
  let buckets_arg =
    Arg.(value & opt int 8 & info [ "buckets" ] ~docv:"B" ~doc:"Bucket count.")
  in
  let run data quick buckets =
    wrap (fun () ->
        let ds = load_dataset data in
        let xs = if quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
        let max_states = if quick then 2_000_000 else 60_000_000 in
        let rows = E.Rounding_study.run ~buckets ~xs ~max_states ds in
        print_string (E.Rounding_study.table rows);
        print_newline ();
        print_string (E.Claims.table [ E.Rounding_study.verdict rows ]))
  in
  command "rounding" ~doc:"OPT-A-ROUNDED trade-off study (T4)."
    Term.(const run $ dataset_arg $ quick_arg $ buckets_arg)

let scale_cmd =
  let jobs_sweep_arg =
    Arg.(value & flag
           & info [ "jobs-sweep" ]
               ~doc:"Also time the exact OPT-A DP at jobs = 1, 2, 4 on the \
                     Figure-1 dataset (the PR-3 speedup table).")
  in
  let run quick jobs jobs_sweep =
    wrap (fun () ->
        let ns = if quick then [ 127; 255 ] else E.Scalability.default_ns in
        let options = options_of jobs quick None in
        print_string (E.Scalability.table (E.Scalability.run ~ns ~options ()));
        if jobs_sweep then begin
          let max_states = if quick then 2_000_000 else 60_000_000 in
          let rec sweep_at x =
            try E.Scalability.run_jobs ~max_states ~x ()
            with Rs_histogram.Opt_a.Too_many_states _ when x < 1024 ->
              sweep_at (x * 4)
          in
          print_newline ();
          print_string
            (E.Scalability.jobs_table (sweep_at (if quick then 8 else 1)))
        end)
  in
  command "scale" ~doc:"Scalability sweep (S1)."
    Term.(const run $ quick_arg $ jobs_arg $ jobs_sweep_arg)

let workload_cmd =
  let run data =
    wrap (fun () ->
        let ds = load_dataset data in
        let rows = E.Workload_study.run ds in
        print_string (E.Workload_study.table rows);
        print_newline ();
        print_string (E.Claims.table [ E.Workload_study.verdict rows ]))
  in
  command "workload" ~doc:"Workload-aware histogram study (W1, extension)."
    Term.(const run $ dataset_arg)

let dim2_cmd =
  let n_arg =
    Arg.(value & opt int 31 & info [ "n" ] ~docv:"N" ~doc:"Grid side length.")
  in
  let run n =
    wrap (fun () ->
        let rows = E.Dim2_study.run ~n () in
        print_string (E.Dim2_study.table rows);
        print_newline ();
        print_string (E.Claims.table [ E.Dim2_study.verdict rows ]))
  in
  command "dim2" ~doc:"Two-dimensional range aggregates (D2, footnote 2)."
    Term.(const run $ n_arg)

(* --- store --- *)

let store_dir_arg =
  Arg.(value & opt string "synopses" & info [ "dir" ] ~docv:"DIR"
         ~doc:"Store directory (created on first use).")

let store_list_cmd =
  let run dir =
    wrap (fun () ->
        let store = Rs_core.Store.open_dir dir in
        let names = Rs_core.Store.list store in
        Printf.printf "%d synopsis(es) in %s\n" (List.length names) dir;
        List.iter
          (fun name ->
            match Rs_core.Store.get store ~name with
            | Ok s -> Printf.printf "  %-20s %s\n" name (Synopsis.describe s)
            | Error e -> Printf.printf "  %-20s UNREADABLE: %s\n" name
                           (Error.to_string e))
          names)
  in
  command "list" ~doc:"List the synopses in a store."
    Term.(const run $ store_dir_arg)

let store_put_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Entry name ([A-Za-z0-9._-]+).")
  in
  let run dir name data m budget quick =
    wrap (fun () ->
        let options = options_of_quick quick in
        let ds = load_dataset data in
        let built =
          Error.get
            (Builder.build_result ~options ds ~method_name:m
               ~budget_words:budget)
        in
        let store = Rs_core.Store.open_dir dir in
        Rs_core.Store.put store ~name built.Builder.synopsis;
        print_report built;
        Printf.printf "stored %s in %s: %s\n" name dir
          (Synopsis.describe built.Builder.synopsis))
  in
  command "put" ~doc:"Build a synopsis and store it under a name."
    Term.(
      const run $ store_dir_arg $ name_arg $ dataset_arg $ method_arg
      $ budget_arg $ quick_arg)

let store_fsck_cmd =
  let run dir =
    wrap (fun () ->
        let store = Rs_core.Store.open_dir dir in
        let r = Rs_core.Store.fsck store in
        Printf.printf "%s: %d entries ok\n" dir (List.length r.Rs_core.Store.ok);
        List.iter
          (fun (name, reason) ->
            Printf.printf "  quarantined %s: %s\n" name reason)
          r.Rs_core.Store.quarantined;
        List.iter
          (fun file -> Printf.printf "  removed stray temp file %s\n" file)
          r.Rs_core.Store.removed_tmp;
        if r.Rs_core.Store.manifest_rebuilt then
          print_endline "  manifest rebuilt")
  in
  command "fsck" ~doc:"Check and repair a store: quarantine corrupt entries, \
                       remove stray temp files, rebuild the manifest."
    Term.(const run $ store_dir_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Durable synopsis store (crash-safe, self-healing)."
       ~exits)
    [ store_list_cmd; store_put_cmd; store_fsck_cmd ]

let main_cmd =
  let doc = "summary statistics for range aggregates (PODS 2001 reproduction)" in
  Cmd.group
    (Cmd.info "range_synopsis" ~version:"1.0.0" ~doc ~exits)
    [
      generate_cmd; info_cmd; build_cmd; query_cmd; evaluate_cmd; figure1_cmd;
      claims_cmd; reopt_cmd; rounding_cmd; scale_cmd; workload_cmd; dim2_cmd;
      store_cmd;
    ]

(* RS_LOG / RS_METRICS handling lives in Rs_util.Logging so the CLI,
   bench and examples share one environment contract (and unknown
   RS_LOG values warn instead of being silently ignored). *)
let () =
  Rs_util.Logging.setup_from_env ();
  let code = Cmd.eval' main_cmd in
  (* RS_METRICS=1 without --metrics-out: dump the report to stderr so
     any subcommand (store ops, evaluate, figure1...) can be observed
     without new flags. *)
  if Rs_util.Logging.metrics_env_requested () then
    prerr_string (Rs_util.Metrics.to_json ());
  exit code
