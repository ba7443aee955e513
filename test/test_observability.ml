(* Observability layer: metrics registry, trace spans, per-subsystem
   log sources, the RS_LOG/RS_METRICS environment contract — and pinned
   regressions for the two governor bugs this layer flushed out (the
   shared mutable [unlimited] default, and poll-budget expiries rendered
   as seconds). *)

open Helpers
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace
module Logging = Rs_util.Logging
module Governor = Rs_util.Governor
module Error = Rs_util.Error
module Opt_a = Rs_histogram.Opt_a

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* Run [f] against a clean, enabled registry; leave everything disabled
   and zeroed afterwards so tests cannot leak state into each other. *)
let with_fresh f =
  Metrics.reset ();
  Trace.clear ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Trace.disable ();
      Metrics.reset ();
      Trace.clear ())
    f

let counter_value report name =
  match List.assoc_opt name report.Metrics.r_counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %s missing from report" name

(* --- Governor bug pins ------------------------------------------------ *)

(* Pre-PR, [Governor.unlimited] was a single process-wide mutable record
   with [started = 0.], so [elapsed unlimited] reported machine uptime
   (CLOCK_MONOTONIC now minus zero) instead of 0, and its mutable poll
   counter accumulated across every unrelated build. *)
let test_unlimited_fresh () =
  Alcotest.(check (float 0.))
    "elapsed of the ungoverned default is exactly 0" 0.
    (Governor.elapsed Governor.unlimited);
  Alcotest.(check (option (float 0.)))
    "no deadline" None
    (Governor.deadline Governor.unlimited);
  Alcotest.(check bool)
    "never expired" false
    (Governor.expired Governor.unlimited);
  for _ = 1 to 10_000 do
    (match Governor.poll Governor.unlimited with
    | Governor.Continue -> ()
    | _ -> Alcotest.fail "polling unlimited must always Continue");
    Governor.check Governor.unlimited ~stage:"test"
  done;
  (* Polling mutates nothing: elapsed is still identically 0. *)
  Alcotest.(check (float 0.))
    "elapsed unchanged by 10k polls" 0.
    (Governor.elapsed Governor.unlimited)

(* Pre-PR, two builds polling the shared default from different domains
   raced on its mutable fields.  The fix makes [unlimited] immutable, so
   concurrent polling is trivially safe. *)
let test_unlimited_two_domain_race () =
  let hammer () =
    let ok = ref true in
    for _ = 1 to 50_000 do
      (match Governor.poll Governor.unlimited with
      | Governor.Continue -> ()
      | _ -> ok := false);
      if Governor.expired Governor.unlimited then ok := false
    done;
    !ok
  in
  let d1 = Domain.spawn hammer and d2 = Domain.spawn hammer in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 saw only Continue" true ok1;
  Alcotest.(check bool) "domain 2 saw only Continue" true ok2;
  Alcotest.(check (float 0.))
    "still pristine after concurrent hammering" 0.
    (Governor.elapsed Governor.unlimited)

let test_fresh_governors_isolated () =
  let g1 = Governor.create ~poll_budget:2 () in
  let g2 = Governor.create ~poll_budget:2 () in
  ignore (Governor.poll g1);
  (match Governor.poll g1 with
  | Governor.Expired _ -> ()
  | _ -> Alcotest.fail "g1 should expire at its 2nd poll");
  match Governor.poll g2 with
  | Governor.Continue -> ()
  | _ -> Alcotest.fail "g2 must not inherit g1's poll count"

(* Pre-PR, a poll-budget expiry stuffed poll counts into the same
   [elapsed]/[deadline] floats as wall-clock seconds and every formatter
   rendered them as "%.3fs elapsed" — "3.000s elapsed (deadline 3.000s)"
   for a 3-poll budget.  The payload now carries the reason and all
   rendering goes through [describe_expiry]. *)
let test_poll_budget_reason () =
  let g = Governor.create ~poll_budget:3 () in
  ignore (Governor.poll g);
  ignore (Governor.poll g);
  (match Governor.poll g with
  | Governor.Expired { elapsed; deadline; reason = Governor.Poll_budget; _ } ->
      Alcotest.(check (float 0.)) "elapsed is the poll count" 3. elapsed;
      Alcotest.(check (float 0.)) "deadline is the budget" 3. deadline
  | Governor.Expired { reason = Governor.Wall_clock; _ } ->
      Alcotest.fail "poll-budget expiry mislabelled as wall-clock"
  | _ -> Alcotest.fail "3rd poll of a 3-poll budget must expire");
  let msg =
    Governor.describe_expiry ~reason:Governor.Poll_budget ~elapsed:3.
      ~deadline:3.
  in
  Alcotest.(check bool)
    (Printf.sprintf "%S mentions polls" msg)
    true (contains msg "poll");
  Alcotest.(check bool)
    (Printf.sprintf "%S does not claim seconds" msg)
    false
    (contains msg "s elapsed");
  (* check, the raising entry point, carries the same reason. *)
  let g = Governor.create ~poll_budget:1 () in
  (match Governor.check g ~stage:"dp" with
  | () -> Alcotest.fail "check must raise at budget exhaustion"
  | exception
      Governor.Deadline_exceeded { reason = Governor.Poll_budget; stage; _ } ->
      Alcotest.(check string) "stage" "dp" stage
  | exception Governor.Deadline_exceeded { reason = Governor.Wall_clock; _ } ->
      Alcotest.fail "check mislabelled a poll-budget expiry as wall-clock");
  (* And the typed-error formatter renders poll counts as polls. *)
  let s =
    Error.to_string
      (Error.Timeout
         {
           stage = "dp";
           elapsed = 12.;
           deadline = 16.;
           reason = Governor.Poll_budget;
         })
  in
  Alcotest.(check bool)
    (Printf.sprintf "Error.to_string %S mentions polls" s)
    true (contains s "polls")

let test_wall_clock_reason () =
  let g = Governor.create ~deadline:0.001 () in
  Unix.sleepf 0.01;
  (match Governor.poll g with
  | Governor.Expired { reason = Governor.Wall_clock; elapsed; deadline; _ } ->
      Alcotest.(check bool) "elapsed past deadline" true (elapsed > deadline)
  | _ -> Alcotest.fail "overdue wall-clock governor must expire");
  let msg =
    Governor.describe_expiry ~reason:Governor.Wall_clock ~elapsed:1.204
      ~deadline:1.
  in
  Alcotest.(check bool)
    (Printf.sprintf "%S renders seconds" msg)
    true (contains msg "elapsed")

(* Every path an expiry can take to the user must end in
   [describe_expiry].  Two boundaries are easy to regress: the typed
   conversion in [Error.guard] (the CLI and the serving daemon both rely
   on it) and the [Printexc] printer for an exception that escapes all
   the way to the runtime. *)
let test_expiry_boundary_pins () =
  (* guard: an escaped Deadline_exceeded becomes a typed Timeout with
     the reason intact, never a generic failure. *)
  let g = Governor.create ~poll_budget:1 () in
  (match Error.guard (fun () -> Governor.check g ~stage:"boundary") with
  | Error (Error.Timeout { stage; reason = Governor.Poll_budget; _ }) ->
      Alcotest.(check string) "guard keeps the stage" "boundary" stage
  | Error (Error.Timeout { reason = Governor.Wall_clock; _ }) ->
      Alcotest.fail "guard mislabelled a poll-budget expiry as wall-clock"
  | Error e -> Alcotest.failf "guard produced %s" (Error.to_string e)
  | Ok () -> Alcotest.fail "exhausted governor must not pass guard");
  (* Printexc: the registered printer routes through describe_expiry, so
     an uncaught expiry never prints poll counts as bare floats. *)
  let s =
    Printexc.to_string
      (Governor.Deadline_exceeded
         {
           stage = "dp";
           elapsed = 7.;
           deadline = 7.;
           reason = Governor.Poll_budget;
         })
  in
  Alcotest.(check bool)
    (Printf.sprintf "Printexc %S mentions polls" s)
    true (contains s "polls");
  Alcotest.(check bool)
    (Printf.sprintf "Printexc %S does not claim seconds" s)
    false
    (contains s "s elapsed")

(* --- Metrics semantics ------------------------------------------------ *)

let test_counter_gauge_semantics () =
  with_fresh @@ fun () ->
  let c = Metrics.counter "test.obs.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set g 2.5;
  Metrics.count "test.obs.dynamic" 7;
  let r = Metrics.report () in
  Alcotest.(check int) "counter" 42 (counter_value r "test.obs.counter");
  Alcotest.(check int) "dynamic counter" 7 (counter_value r "test.obs.dynamic");
  Alcotest.(check (float 0.))
    "gauge" 2.5
    (List.assoc "test.obs.gauge" r.Metrics.r_gauges);
  (* Interning is idempotent: same handle, not a second cell. *)
  let c' = Metrics.counter "test.obs.counter" in
  Metrics.incr c';
  Alcotest.(check int)
    "re-interned counter shares the cell" 43
    (counter_value (Metrics.report ()) "test.obs.counter");
  (* reset zeroes values but keeps registrations; unset gauges stay out
     of the report. *)
  Metrics.reset ();
  let r = Metrics.report () in
  Alcotest.(check int) "reset counter" 0 (counter_value r "test.obs.counter");
  Alcotest.(check bool)
    "reset gauge unlisted" true
    (not (List.mem_assoc "test.obs.gauge" r.Metrics.r_gauges))

let test_histogram_semantics () =
  with_fresh @@ fun () ->
  let h = Metrics.histogram "test.obs.hist" in
  Metrics.observe h 0.0005 (* bucket le=1e-3 *);
  Metrics.observe h 0.25 (* bucket le=0.5 *);
  Metrics.observe h 1e9 (* overflow bucket *);
  let r = Metrics.report () in
  let s = List.assoc "test.obs.hist" r.Metrics.r_histograms in
  Alcotest.(check int) "count" 3 s.Metrics.h_count;
  check_close "sum" (0.0005 +. 0.25 +. 1e9) s.Metrics.h_sum;
  check_close "max" 1e9 s.Metrics.h_max;
  let bucket le =
    let matches (b, n) =
      if
        (if le = infinity then b = infinity
         else b <> infinity && close b le)
      then Some n
      else None
    in
    match List.filter_map matches s.Metrics.h_buckets with
    | [ n ] -> n
    | _ -> Alcotest.failf "no unique bucket with le=%g" le
  in
  Alcotest.(check int) "1e-3 bucket" 1 (bucket 1e-3);
  Alcotest.(check int) "0.5 bucket" 1 (bucket 0.5);
  Alcotest.(check int) "overflow bucket" 1 (bucket infinity);
  let last, _ = List.nth s.Metrics.h_buckets (List.length s.Metrics.h_buckets - 1) in
  Alcotest.(check bool) "last bucket bound is +inf" true (last = infinity)

let test_disabled_is_inert_and_cheap () =
  Metrics.disable ();
  Metrics.reset ();
  let c = Metrics.counter "test.obs.disabled" in
  let iters = 10_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    Metrics.incr c
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int)
    "disabled recording writes nothing" 0
    (counter_value (Metrics.report ()) "test.obs.disabled");
  (* One load + one branch per call: even a slow CI box does 10M in far
     under a second.  Generous bound — this guards against accidentally
     reintroducing a lookup/allocation, not against timer noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "10M disabled incrs in %.3fs (< 1s)" dt)
    true (dt < 1.0);
  (* Dynamic-name counting must not even intern when disabled. *)
  Metrics.count "test.obs.never_interned" 1;
  Alcotest.(check bool)
    "disabled count does not register the name" true
    (not
       (List.mem_assoc "test.obs.never_interned"
          (Metrics.report ()).Metrics.r_counters));
  let restored = Metrics.with_enabled (fun () -> Metrics.enabled ()) in
  Alcotest.(check bool) "with_enabled turns it on" true restored;
  Alcotest.(check bool)
    "and restores the prior state" false (Metrics.enabled ())

(* --- Trace spans ------------------------------------------------------ *)

let test_spans_record_and_survive_exceptions () =
  with_fresh @@ fun () ->
  Trace.enable ();
  let v = Trace.with_span "test.ok" (fun () -> 42) in
  Alcotest.(check int) "with_span is transparent" 42 v;
  (try Trace.with_span "test.raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  let names = List.map (fun sp -> sp.Trace.sp_name) (Trace.spans ()) in
  Alcotest.(check (list string))
    "both spans recorded, oldest first" [ "test.ok"; "test.raise" ] names;
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        "span duration is non-negative" true
        (sp.Trace.sp_duration >= 0.))
    (Trace.spans ());
  (* When metrics are on too, each span feeds span.<name>. *)
  let r = Metrics.report () in
  Alcotest.(check bool)
    "span.test.ok histogram present" true
    (List.mem_assoc "span.test.ok" r.Metrics.r_histograms);
  (* Disabled tracing is a straight call. *)
  Trace.disable ();
  Trace.clear ();
  ignore (Trace.with_span "test.off" (fun () -> 1));
  Alcotest.(check int) "no span when disabled" 0 (List.length (Trace.spans ()))

let test_span_ring_bounded () =
  with_fresh @@ fun () ->
  Metrics.disable () (* keep the registry out of this one *);
  Trace.enable ();
  for i = 1 to Trace.capacity + 10 do
    Trace.with_span (Printf.sprintf "ring.%d" i) (fun () -> ())
  done;
  let spans = Trace.spans () in
  Alcotest.(check int) "ring holds capacity" Trace.capacity (List.length spans);
  Alcotest.(check string)
    "oldest surviving span is capacity+10 back" "ring.11"
    (List.hd spans).Trace.sp_name

(* Loading a dataset file records the layers perfbench's traced build
   names: one [dataset.load] span with [prefix.create] inside it. *)
let test_dataset_load_spans () =
  with_fresh @@ fun () ->
  let path = Filename.temp_file "rs_obs" ".data" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc "3\n# c\n1.5\n4\n");
  Trace.enable ();
  ignore (Error.get (Rs_core.Dataset.load_result path));
  match Trace.spans () with
  | [ inner; outer ] ->
      Alcotest.(check string) "child" "prefix.create" inner.Trace.sp_name;
      Alcotest.(check string) "parent" "dataset.load" outer.Trace.sp_name;
      Alcotest.(check bool)
        "prefix.create lies inside dataset.load" true
        (outer.Trace.sp_start <= inner.Trace.sp_start
        && inner.Trace.sp_start +. inner.Trace.sp_duration
           <= outer.Trace.sp_start +. outer.Trace.sp_duration)
  | spans ->
      Alcotest.failf "expected two spans, got [%s]"
        (String.concat "; " (List.map (fun sp -> sp.Trace.sp_name) spans))

(* --- Engine integration: per-solve counters, worker isolation --------- *)

let opt_a_workload ~jobs () =
  let rng = Rng.create 31 in
  let data = random_int_data rng ~n:200 ~hi:50 in
  let p = prefix_of data in
  Opt_a.build_exact ~jobs p ~buckets:4

(* The registry is coordinator-only: workers accumulate per-cell deltas
   that the coordinator merges at chunk barriers, so an instrumented
   parallel run reports exactly the sequential counts.  If a worker ever
   touched the registry directly, unsynchronised increments would be
   lost and these totals would drift. *)
let test_jobs_invariant_counters () =
  let seq, par, seq_result, par_result =
    with_fresh @@ fun () ->
    let r1 = opt_a_workload ~jobs:1 () in
    let seq = Metrics.report () in
    Metrics.reset ();
    let r4 = opt_a_workload ~jobs:4 () in
    (seq, Metrics.report (), r1, r4)
  in
  Alcotest.(check int)
    "same DP state count either way" seq_result.Opt_a.states
    par_result.Opt_a.states;
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " identical across job counts")
        (counter_value seq name) (counter_value par name))
    [ "opt_a.states"; "opt_a.pruned"; "opt_a.solves" ];
  Alcotest.(check bool)
    "recorded a nonzero state count" true
    (counter_value seq "opt_a.states" > 0);
  Alcotest.(check int)
    "sequential run never touches the pool" 0
    (counter_value seq "pool.chunks");
  Alcotest.(check bool)
    "parallel run records chunk barriers" true
    (counter_value par "pool.chunks" > 0)

(* The PR-8 kernel histograms.  [ktbl.probe_len] is absorbed from the
   coordinator's per-solve stats, and probe sequences are a function of
   insertion order — which the bit-identity contract pins across job
   counts — so its totals must twin exactly.  [pool.chunk_span] counts
   the chunk widths of a jobs > 1 pool, a parallel-only quantity
   (excluded from the twin like "pool.chunks"). *)
let histogram_stats report name =
  match List.assoc_opt name report.Metrics.r_histograms with
  | Some s -> s
  | None -> Alcotest.failf "histogram %s missing from report" name

let test_kernel_histograms () =
  let seq, par =
    with_fresh @@ fun () ->
    ignore (opt_a_workload ~jobs:1 ());
    let seq = Metrics.report () in
    Metrics.reset ();
    ignore (opt_a_workload ~jobs:4 ());
    (seq, Metrics.report ())
  in
  let probes_seq = histogram_stats seq "ktbl.probe_len" in
  let probes_par = histogram_stats par "ktbl.probe_len" in
  Alcotest.(check bool)
    "probes were recorded" true (probes_seq.Metrics.h_count > 0);
  Alcotest.(check int)
    "probe count identical across job counts" probes_seq.Metrics.h_count
    probes_par.Metrics.h_count;
  check_close "probe sum identical across job counts" probes_seq.Metrics.h_sum
    probes_par.Metrics.h_sum;
  Alcotest.(check (list int))
    "probe buckets identical across job counts"
    (List.map snd probes_seq.Metrics.h_buckets)
    (List.map snd probes_par.Metrics.h_buckets);
  (* chunk spans: only jobs > 1 runs record them, every observation
     is a positive span no wider than the fixed 64-cell chunk, and the
     chunk counter is their count. *)
  (* unobserved histograms are omitted from the report entirely *)
  Alcotest.(check bool)
    "sequential run records no chunk spans" true
    (List.assoc_opt "pool.chunk_span" seq.Metrics.r_histograms = None);
  let spans_par = histogram_stats par "pool.chunk_span" in
  Alcotest.(check bool)
    "parallel run records chunk spans" true (spans_par.Metrics.h_count > 0);
  Alcotest.(check int)
    "one span observation per chunk barrier"
    (counter_value par "pool.chunks")
    spans_par.Metrics.h_count;
  Alcotest.(check bool)
    "spans bounded by the 64-cell chunk" true
    (spans_par.Metrics.h_max <= 64.
    && spans_par.Metrics.h_sum >= float_of_int spans_par.Metrics.h_count)

let test_disabled_run_records_nothing () =
  Metrics.disable ();
  Metrics.reset ();
  ignore (opt_a_workload ~jobs:1 ());
  Alcotest.(check int)
    "opt_a.states untouched when disabled" 0
    (counter_value (Metrics.report ()) "opt_a.states")

(* The segmented supervisor suspends observability around every inner
   build (sequential and parallel alike) and records segment-level
   counters itself, on the coordinator, at boundary cadence — so
   counter totals cannot depend on the job count.  The one deliberate
   exception is "segmented.waves": it counts pool wave barriers, which
   only exist on the parallel path, so it is excluded from the twin
   (exactly like "pool.chunks" above). *)
let segmented_workload ~jobs () =
  let options =
    { Rs_core.Builder.default_options with Rs_core.Builder.jobs }
  in
  match
    Rs_core.Supervisor.build ~options ~planner:`Uniform
      (Rs_core.Dataset.generate "zipf-256")
      ~method_name:"point-opt" ~budget_words:48 ~segments:6
  with
  | Ok (t, _) -> Rs_core.Segmented.to_string t
  | Error e ->
      Alcotest.failf "segmented workload failed: %s" (Error.to_string e)

let test_segmented_jobs_invariant_counters () =
  let seq, par, b1, b4 =
    with_fresh @@ fun () ->
    let b1 = segmented_workload ~jobs:1 () in
    let seq = Metrics.report () in
    Metrics.reset ();
    let b4 = segmented_workload ~jobs:4 () in
    (seq, Metrics.report (), b1, b4)
  in
  Alcotest.(check string) "segmented bytes identical across jobs" b1 b4;
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " identical across job counts")
        (counter_value seq name) (counter_value par name))
    [
      "segmented.builds";
      "segmented.segments";
      "segmented.segments_completed";
    ];
  Alcotest.(check bool)
    "segments were actually counted" true
    (counter_value seq "segmented.segments" > 0);
  let waves r =
    Option.value ~default:0
      (List.assoc_opt "segmented.waves" r.Metrics.r_counters)
  in
  Alcotest.(check int) "sequential supervisor runs no waves" 0 (waves seq);
  Alcotest.(check bool)
    "parallel supervisor records wave barriers" true (waves par > 0)

(* --- JSON report ------------------------------------------------------ *)

(* Minimal structural scanner: brackets balance outside strings, and the
   document is one object.  Not a JSON parser, but enough to catch an
   unterminated object/array or a raw [inf]/[nan] leaking in. *)
let json_well_formed s =
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !in_str then
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
        else ()
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> Stdlib.incr depth
        | '}' | ']' ->
            Stdlib.decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let test_json_schema () =
  with_fresh @@ fun () ->
  Metrics.incr (Metrics.counter "test.obs.json");
  Metrics.set (Metrics.gauge "test.obs.json_gauge") 1.5;
  Metrics.observe (Metrics.histogram "test.obs.json_hist") 2e9;
  let s = Metrics.to_json () in
  let has affix =
    Alcotest.(check bool)
      (Printf.sprintf "json contains %S" affix)
      true (contains s affix)
  in
  has "\"schema\": \"rs-metrics-v1\"";
  has "\"counters\": ";
  has "\"gauges\": ";
  has "\"histograms\": ";
  has "\"test.obs.json\": 1";
  has "\"test.obs.json_gauge\": 1.5";
  has "\"le\": \"+inf\"";
  Alcotest.(check bool) "well-formed" true (json_well_formed s);
  Alcotest.(check bool) "no bare inf" false (contains s "le\": inf");
  Alcotest.(check bool) "no nan" false (contains s "nan");
  (* write_json round-trips through the filesystem byte-for-byte. *)
  let path = Filename.temp_file "rs_metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Metrics.write_json path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Alcotest.(check string) "file matches to_json" s contents)

(* --- Stream WAL gauges -------------------------------------------------- *)

(* "How far behind is the WAL": the live metrics op carries the records
   and deltas acked since the last STREAM checkpoint, both zero once a
   refresh checkpoints, and a resume says on rs.stream what it
   replayed. *)
let test_stream_wal_gauges () =
  let module Stream = Rs_core.Stream in
  let module Store = Rs_core.Store in
  let module Server = Rs_serve.Server in
  let module P = Rs_serve.Protocol in
  let dir = Filename.temp_file "rs_obs_stream" ".store" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore
    (Stream.create ~store:(Store.open_dir dir) (Rs_core.Dataset.generate "zipf-64"));
  let logged = Buffer.create 256 in
  let reporter =
    {
      Logs.report =
        (fun src _level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun line ->
                  if Logs.Src.name src = "rs.stream" then
                    Buffer.add_string logged (line ^ "\n");
                  over ();
                  k ())
                fmt));
    }
  in
  let old_reporter = Logs.reporter () and old_level = Logs.Src.level Stream.log_src in
  Logs.set_reporter reporter;
  Logs.Src.set_level Stream.log_src (Some Logs.Info);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter old_reporter;
      Logs.Src.set_level Stream.log_src old_level)
  @@ fun () ->
  with_fresh @@ fun () ->
  let server =
    match Server.create (Server.default_config ~store_dir:dir) with
    | Ok s -> s
    | Error e -> Alcotest.failf "server: %s" (Error.to_string e)
  in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  let ingest deltas =
    let line =
      Server.handle_line server
        (P.encode_request (P.Ingest { id = None; synopsis = "stream"; deltas }))
    in
    Alcotest.(check bool) ("ingest acked: " ^ line) true (contains line "\"applied\"")
  in
  let gauges_read what records deltas =
    let line = Server.handle_line server (P.encode_request P.Metrics) in
    List.iter
      (fun key ->
        Alcotest.(check bool) (Printf.sprintf "%s: %s" what key) true (contains line key))
      [
        Printf.sprintf "\"stream.wal.pending_records\": %d.0" records;
        Printf.sprintf "\"stream.wal.pending_deltas\": %d.0" deltas;
      ]
  in
  (* seg0 and seg1 in one batch (two records), then seg0 again *)
  ingest [| (2, 1.5); (20, 2.) |];
  ingest [| (3, 1.) |];
  gauges_read "after ingests" 3 3;
  (* a reload re-resumes: replay finds the same three records *)
  ignore (Server.reload server);
  gauges_read "after reload" 3 3;
  Alcotest.(check bool) "resume logs its replay" true
    (contains (Buffer.contents logged) "replayed 3 WAL record(s), 3 delta(s)");
  ignore (Stream.refresh (Option.get (Server.stream server)));
  gauges_read "after refresh" 0 0

(* --- Environment contract --------------------------------------------- *)

let test_rs_log_parsing () =
  let check_lvl s expected =
    match Logging.level_of_string s with
    | Ok l when l = expected -> ()
    | Ok l ->
        Alcotest.failf "level_of_string %S: got Ok %s" s
          (Logs.level_to_string l)
    | Error e -> Alcotest.failf "level_of_string %S: got Error %s" s e
  in
  check_lvl "debug" (Some Logs.Debug);
  check_lvl "INFO" (Some Logs.Info);
  check_lvl "warning" (Some Logs.Warning);
  check_lvl "warn" (Some Logs.Warning);
  check_lvl "error" (Some Logs.Error);
  check_lvl " off " None;
  check_lvl "quiet" None;
  (match Logging.level_of_string "bogus" with
  | Error msg ->
      Alcotest.(check bool)
        "error names the value" true (contains msg "\"bogus\"");
      Alcotest.(check bool)
        "error lists accepted levels" true (contains msg "accepted")
  | Ok _ -> Alcotest.fail "unknown RS_LOG value must be rejected, not ignored")

let test_rs_metrics_env () =
  let with_env v f =
    Unix.putenv "RS_METRICS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "RS_METRICS" "") f
  in
  with_env "1" (fun () ->
      Alcotest.(check bool) "1 is truthy" true (Logging.metrics_env_requested ()));
  with_env "yes" (fun () ->
      Alcotest.(check bool)
        "yes is truthy" true
        (Logging.metrics_env_requested ()));
  with_env "0" (fun () ->
      Alcotest.(check bool)
        "0 is falsy" false
        (Logging.metrics_env_requested ()));
  with_env "on" (fun () ->
      Metrics.disable ();
      Trace.disable ();
      Logging.setup_from_env ();
      Alcotest.(check bool)
        "setup_from_env enables metrics" true (Metrics.enabled ());
      Alcotest.(check bool)
        "setup_from_env enables tracing" true (Trace.enabled ());
      Metrics.disable ();
      Trace.disable ();
      Metrics.reset ();
      Trace.clear ())

(* Every subsystem registers its own Logs source; the engine modules are
   linked into this binary, so their sources must be visible. *)
let test_log_sources_registered () =
  Alcotest.(check string)
    "dp source name" "rs.dp"
    (Logs.Src.name Rs_histogram.Dp.log_src);
  Alcotest.(check string)
    "governor source name" "rs.governor"
    (Logs.Src.name Governor.log_src);
  let names = List.map Logs.Src.name (Logs.Src.list ()) in
  List.iter
    (fun src ->
      Alcotest.(check bool)
        (src ^ " registered") true
        (List.mem src names))
    [ "rs.dp"; "rs.governor"; "rs.pool"; "rs.checkpoint" ]

let () =
  Alcotest.run "observability"
    [
      ( "governor",
        [
          Alcotest.test_case "unlimited is fresh and immutable" `Quick
            test_unlimited_fresh;
          Alcotest.test_case "unlimited two-domain race" `Quick
            test_unlimited_two_domain_race;
          Alcotest.test_case "fresh governors isolated" `Quick
            test_fresh_governors_isolated;
          Alcotest.test_case "poll-budget expiry reason" `Quick
            test_poll_budget_reason;
          Alcotest.test_case "wall-clock expiry reason" `Quick
            test_wall_clock_reason;
          Alcotest.test_case "expiry boundary pins (guard, Printexc)" `Quick
            test_expiry_boundary_pins;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter/gauge semantics" `Quick
            test_counter_gauge_semantics;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_semantics;
          Alcotest.test_case "disabled is inert and cheap" `Quick
            test_disabled_is_inert_and_cheap;
          Alcotest.test_case "stream WAL gauges" `Quick test_stream_wal_gauges;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans record (and survive raises)" `Quick
            test_spans_record_and_survive_exceptions;
          Alcotest.test_case "ring is bounded" `Quick test_span_ring_bounded;
          Alcotest.test_case "dataset load spans" `Quick test_dataset_load_spans;
        ] );
      ( "engine",
        [
          Alcotest.test_case "counters invariant across jobs" `Quick
            test_jobs_invariant_counters;
          Alcotest.test_case "kernel histograms (probe_len, chunk_span)" `Quick
            test_kernel_histograms;
          Alcotest.test_case "segmented counters invariant across jobs" `Quick
            test_segmented_jobs_invariant_counters;
          Alcotest.test_case "disabled run records nothing" `Quick
            test_disabled_run_records_nothing;
        ] );
      ( "json",
        [ Alcotest.test_case "schema and escaping" `Quick test_json_schema ] );
      ( "env",
        [
          Alcotest.test_case "RS_LOG parsing" `Quick test_rs_log_parsing;
          Alcotest.test_case "RS_METRICS contract" `Quick test_rs_metrics_env;
          Alcotest.test_case "log sources registered" `Quick
            test_log_sources_registered;
        ] );
    ]
