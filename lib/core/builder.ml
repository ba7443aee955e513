module H = Rs_histogram
module W = Rs_wavelet.Synopsis
module Checks = Rs_util.Checks
module Error = Rs_util.Error
module Governor = Rs_util.Governor
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace

let log_src = Logs.Src.create "rs.builder" ~doc:"Name-keyed synopsis builder"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  opt_a_max_states : int;
  opt_a_xs : int list;
  rounded_x : int;
  governor : Governor.t;
  jobs : int;
}

let default_options =
  {
    opt_a_max_states = 60_000_000;
    opt_a_xs = [ 8; 32; 128 ];
    rounded_x = 8;
    governor = Governor.unlimited;
    jobs = 1;
  }

type kind =
  | Hist of (options -> Rs_util.Prefix.t -> buckets:int -> H.Histogram.t)
  | Wave of (float array -> b:int -> W.t)

let require_integral name p =
  Array.iter
    (fun v ->
      Checks.check (Float.is_integer v)
        (Printf.sprintf
           "Builder: method %S requires integral frequencies (round the data \
            first)"
           name))
    (Rs_util.Prefix.data p)

let opt_a opts p ~buckets =
  require_integral "opt-a" p;
  (H.Opt_a.build_staged ~max_states:opts.opt_a_max_states ~xs:opts.opt_a_xs
     ~governor:opts.governor ~jobs:opts.jobs p ~buckets)
    .H.Opt_a.histogram

let reopt base _opts p ~buckets =
  let h = base p ~buckets in
  H.Reopt.apply p h

let registry : (string * int * kind) list =
  [
    ("naive", 2, Hist (fun _ p ~buckets:_ -> H.Baselines.naive p));
    ("equi-width", 2, Hist (fun _ p ~buckets -> H.Baselines.equi_width p ~buckets));
    ("equi-depth", 2, Hist (fun _ p ~buckets -> H.Baselines.equi_depth p ~buckets));
    ("max-diff", 2, Hist (fun _ p ~buckets -> H.Baselines.max_diff p ~buckets));
    ( "point-opt",
      2,
      Hist
        (fun o p ~buckets ->
          H.Vopt.build ~governor:o.governor ~stage:"point-opt" ~jobs:o.jobs p
            ~buckets) );
    ( "v-optimal",
      2,
      Hist
        (fun o p ~buckets ->
          H.Vopt.build ~weighted:false ~governor:o.governor
            ~stage:"v-optimal" ~jobs:o.jobs p ~buckets) );
    ( "a0",
      2,
      Hist
        (fun o p ~buckets ->
          H.A0.build ~governor:o.governor ~stage:"a0" p ~buckets) );
    ( "prefix-opt",
      2,
      Hist
        (fun o p ~buckets ->
          H.Prefix_opt.build ~governor:o.governor ~stage:"prefix-opt" p
            ~buckets) );
    ( "sap0",
      3,
      Hist
        (fun o p ~buckets ->
          H.Sap0.build ~governor:o.governor ~stage:"sap0" ~jobs:o.jobs p
            ~buckets) );
    ( "sap1",
      5,
      Hist
        (fun o p ~buckets ->
          H.Sap1.build ~governor:o.governor ~stage:"sap1" ~jobs:o.jobs p
            ~buckets) );
    ("opt-a", 2, Hist opt_a);
    ( "opt-a-rounded",
      2,
      Hist
        (fun opts p ~buckets ->
          (* Definition 3 rounds the data itself, so float frequencies
             are fine here. *)
          (H.Opt_a.build_rounded ~max_states:opts.opt_a_max_states
             ~governor:opts.governor ~jobs:opts.jobs p ~buckets
             ~x:opts.rounded_x)
            .H.Opt_a.histogram) );
    ( "a0-reopt",
      2,
      Hist
        (fun o p ~buckets ->
          reopt
            (fun p ~buckets ->
              H.A0.build ~governor:o.governor ~stage:"a0-reopt" p ~buckets)
            o p ~buckets) );
    ("opt-a-reopt", 2, Hist (fun opts p ~buckets -> H.Reopt.apply p (opt_a opts p ~buckets)));
    ( "equi-width-reopt",
      2,
      Hist (reopt (fun p ~buckets -> H.Baselines.equi_width p ~buckets)) );
    ( "point-opt-reopt",
      2,
      Hist
        (fun o p ~buckets ->
          reopt
            (fun p ~buckets ->
              H.Vopt.build ~governor:o.governor ~stage:"point-opt-reopt" p
                ~buckets)
            o p ~buckets) );
    ("topbb", 2, Wave (fun data ~b -> W.top_b_data data ~b));
    ("topbb-rw", 2, Wave (fun data ~b -> W.top_b_range_weighted data ~b));
    ("wave-range-opt", 2, Wave (fun data ~b -> W.range_optimal data ~b));
    ("wave-aa", 2, Wave (fun data ~b -> W.aa_2d data ~b));
  ]

let methods = List.map (fun (name, _, _) -> name) registry

(* The supervisor's cross-method degradation ladder: which cheaper
   methods to fall back to when a per-segment build keeps failing.
   Mirrors OPT-A's internal ladder (exact -> rounded -> A0) and gives
   every other bucketed histogram the A0 polynomial floor; wavelet
   methods floor at the greedy data-domain TOPBB.  The floors
   themselves have no fallback — below them there is nothing cheaper
   that still answers range queries. *)
let fallback_ladder name =
  match name with
  | "opt-a" -> [ "opt-a-rounded"; "a0" ]
  | "opt-a-rounded" | "opt-a-reopt" -> [ "a0" ]
  | "a0" | "naive" | "topbb" -> []
  | _ -> (
      match List.find_opt (fun (n, _, _) -> n = name) registry with
      | Some (_, _, Hist _) -> [ "a0" ]
      | Some (_, _, Wave _) -> [ "topbb" ]
      | None -> [])

let lookup name =
  match List.find_opt (fun (n, _, _) -> n = name) registry with
  | Some entry -> entry
  | None ->
      Error.raise_error (Error.Unknown_method { name; known = methods })

let words_per_unit name =
  let _, w, _ = lookup name in
  w

let units_for_budget ~method_name ~budget_words =
  max 1 (budget_words / words_per_unit method_name)

let build ?(options = default_options) ds ~method_name ~budget_words =
  let _, _, kind = lookup method_name in
  let units = units_for_budget ~method_name ~budget_words in
  match kind with
  | Hist f -> Synopsis.Histogram (f options (Dataset.prefix ds) ~buckets:units)
  | Wave f -> Synopsis.Wavelet (f (Dataset.values ds) ~b:units)

(* --- the Result-returning boundary with degradation reporting --- *)

type degradation_report = {
  requested : string;
  delivered : string;
  attempts : H.Opt_a.attempt list;
  elapsed : float;
}

type built = { synopsis : Synopsis.t; report : degradation_report option }

let report_lines r =
  Printf.sprintf "degradation ladder: requested %s, delivered %s (%.3fs total)"
    r.requested r.delivered r.elapsed
  :: List.map
       (fun a ->
         Printf.sprintf "  %-22s %s (%.3fs)" a.H.Opt_a.rung
           (H.Opt_a.describe_outcome a.H.Opt_a.outcome)
           a.H.Opt_a.elapsed)
       r.attempts

(* When even the A0 floor failed, surface the most actionable reason:
   a deadline beats a state budget beats an injected fault. *)
let ladder_error attempts =
  let timeout =
    List.find_map
      (fun a ->
        match a.H.Opt_a.outcome with
        | H.Opt_a.Timed_out { elapsed; deadline; reason } ->
            Some
              (Error.Timeout { stage = a.H.Opt_a.rung; elapsed; deadline; reason })
        | _ -> None)
      attempts
  in
  let exhausted =
    List.find_map
      (fun a ->
        match a.H.Opt_a.outcome with
        | H.Opt_a.Exhausted { states; limit } ->
            Some
              (Error.Budget_exhausted
                 { stage = a.H.Opt_a.rung; states_used = states; limit })
        | _ -> None)
      attempts
  in
  match (timeout, exhausted) with
  | Some e, _ | None, Some e -> e
  | None, None ->
      Error.Invalid_input
        (Printf.sprintf "every ladder rung failed: %s"
           (String.concat "; "
              (List.map
                 (fun a ->
                   Printf.sprintf "%s: %s" a.H.Opt_a.rung
                     (H.Opt_a.describe_outcome a.H.Opt_a.outcome))
                 attempts)))

let build_result ?(options = default_options) ?deadline ?checkpoint_path
    ?resume_from ?checkpoint_every ds ~method_name ~budget_words =
  match List.find_opt (fun (n, _, _) -> n = method_name) registry with
  | None ->
      Error.fail (Error.Unknown_method { name = method_name; known = methods })
  | Some _
    when method_name <> "opt-a"
         && (checkpoint_path <> None || resume_from <> None) ->
      Error.fail
        (Error.Invalid_input
           (Printf.sprintf
              "checkpoint/resume is only supported for method \"opt-a\" (its \
               DP is the only long-running one); %S is not checkpointable"
              method_name))
  | Some (_, _, kind) ->
      let governor =
        match (deadline, checkpoint_path, checkpoint_every) with
        | None, None, None -> options.governor
        | None, _, None when options.governor != Governor.unlimited ->
            (* A caller-supplied governor (e.g. the supervisor's
               deterministic poll-budget one) keeps governing even when
               a checkpoint path is armed — the path only says where
               snapshots go, not when to expire. *)
            options.governor
        | _ ->
            (* A checkpoint path turns deadline expiry into
               snapshot-and-exit instead of ladder degradation. *)
            let deadline_mode =
              if checkpoint_path <> None then Governor.Snapshot
              else Governor.Degrade
            in
            Governor.create ?deadline ~deadline_mode
              ?checkpoint_interval:checkpoint_every ()
      in
      let options = { options with governor } in
      let t0 = Rs_util.Mclock.now () in
      let run f =
        Trace.with_span "builder.build" @@ fun () ->
        Metrics.count "builder.builds" 1;
        let res =
          match f () with
          | v -> Ok v
          | exception Error.Rs_error e -> Error e
          | exception Invalid_argument m -> Error (Error.Invalid_input m)
          | exception Failure m -> Error (Error.Invalid_input m)
          | exception H.Opt_a.Too_many_states { states; limit } ->
              Error
                (Error.Budget_exhausted
                   { stage = method_name; states_used = states; limit })
          | exception Governor.Deadline_exceeded
              { stage; elapsed; deadline; reason } ->
              Error (Error.Timeout { stage; elapsed; deadline; reason })
          | exception Governor.Interrupted { stage; checkpoint } ->
              Error (Error.Interrupted { stage; checkpoint })
          | exception Rs_util.Faults.Injected { site; reason } ->
              Error (Error.injected ~site ~reason)
        in
        (match res with
        | Ok _ ->
            Log.debug (fun m ->
                m "build %s ok (%.3fs)" method_name
                  (Rs_util.Mclock.now () -. t0))
        | Error e ->
            Metrics.count "builder.errors" 1;
            Log.warn (fun m ->
                m "build %s failed: %s" method_name (Error.to_string e)));
        res
      in
      if method_name = "opt-a" then
        (* The governed ladder: deliver from a lower rung rather than
           fail, and report every rung attempted. *)
        run (fun () ->
            let p = Dataset.prefix ds in
            require_integral "opt-a" p;
            let units = units_for_budget ~method_name ~budget_words in
            match
              H.Opt_a.build_governed ~max_states:options.opt_a_max_states
                ~xs:options.opt_a_xs ~governor ~jobs:options.jobs
                ?checkpoint_path ?resume_from p ~buckets:units
            with
            | staged ->
                {
                  synopsis =
                    Synopsis.Histogram
                      staged.H.Opt_a.result.H.Opt_a.histogram;
                  report =
                    Some
                      {
                        requested = method_name;
                        delivered = staged.H.Opt_a.delivered;
                        attempts = staged.H.Opt_a.attempts;
                        elapsed = Rs_util.Mclock.now () -. t0;
                      };
                }
            | exception H.Opt_a.All_rungs_failed attempts ->
                Error.raise_error (ladder_error attempts))
      else
        run (fun () ->
            ignore kind;
            Governor.check governor ~stage:method_name;
            let synopsis = build ~options ds ~method_name ~budget_words in
            { synopsis; report = None })
