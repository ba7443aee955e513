(* Fault-tolerant segmented builds: the Rs_query.Segments decomposition
   twins, the Segmented planners, and the Supervisor's robustness
   contract — retry/backoff, degradation ladders, kill-at-every-boundary
   resume sweeps, in-flight snapshot re-entry, manifest fuzzing, and the
   jobs determinism twin. *)

module Error = Rs_util.Error
module Faults = Rs_util.Faults
module Governor = Rs_util.Governor
module Prefix = Rs_util.Prefix
module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module Synopsis = Rs_core.Synopsis
module Store = Rs_core.Store
module Seg = Rs_core.Segmented
module Sup = Rs_core.Supervisor

let tmp_path suffix =
  let path = Filename.temp_file "rs_seg" suffix in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = tmp_path ".segstore" in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
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

let close ?(tol = 1e-6) a b =
  abs_float (a -. b) <= tol *. Float.max 1. (abs_float a +. abs_float b)

let check_close name a b =
  if not (close a b) then Alcotest.failf "%s: %.17g vs %.17g" name a b

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* --- the query-layer decomposition ------------------------------------ *)

(* The O(n + S) segmented SSE must equal the O(n²) sweep over the
   composed estimator, for every method mix and segment count. *)
let test_sse_decomposition_twin () =
  let ds = Dataset.generate "zipf-200" in
  List.iter
    (fun segments ->
      List.iter
        (fun method_name ->
          let plan = Seg.plan ~n:(Dataset.n ds) ~segments in
          let syns =
            Array.map
              (fun (lo, hi) ->
                Builder.build
                  (Seg.sub_dataset ds ~lo ~hi)
                  ~method_name ~budget_words:8)
              plan.Seg.bounds
          in
          let t = Seg.make ds plan syns in
          check_close
            (Printf.sprintf "%s x%d segments" method_name segments)
            (Seg.sse ds t)
            (Rs_query.Error.sse_all_ranges (Dataset.prefix ds) (Seg.estimator t)))
        [ "a0"; "sap0"; "equi-width"; "topbb" ])
    [ 1; 2; 3; 7 ]

(* One segment: the segmented estimator and SSE are exactly the
   monolithic synopsis's. *)
let test_single_segment_is_monolithic () =
  let ds = Dataset.generate "mixture-100" in
  let n = Dataset.n ds in
  let syn = Builder.build ds ~method_name:"a0" ~budget_words:12 in
  let t = Seg.make ds (Seg.plan ~n ~segments:1) [| syn |] in
  for a = 1 to n do
    let b = min n (a + 17) in
    check_close
      (Printf.sprintf "estimate [%d,%d]" a b)
      (Seg.estimate t ~a ~b)
      (Synopsis.estimate syn ~a ~b)
  done;
  check_close "sse" (Seg.sse ds t) (Synopsis.sse ds syn)

(* Cross-segment queries: interior segments contribute their exact
   totals, so a query spanning whole interior segments only errs at its
   two boundary segments. *)
let test_interior_segments_are_exact () =
  let ds = Dataset.generate "zipf-120" in
  let n = Dataset.n ds in
  let plan = Seg.plan ~n ~segments:4 in
  let syns =
    Array.map
      (fun (lo, hi) ->
        Builder.build (Seg.sub_dataset ds ~lo ~hi) ~method_name:"naive"
          ~budget_words:2)
      plan.Seg.bounds
  in
  let t = Seg.make ds plan syns in
  let p = Dataset.prefix ds in
  (* a whole-segment-aligned query is answered exactly from totals *)
  let lo1, _ = plan.Seg.bounds.(1) in
  let _, hi2 = plan.Seg.bounds.(2) in
  check_close "aligned query is exact"
    (Seg.estimate t ~a:lo1 ~b:hi2)
    (Prefix.range_sum p ~a:lo1 ~b:hi2)

let test_make_validation () =
  let ds = Dataset.generate "zipf-64" in
  let plan = Seg.plan ~n:64 ~segments:4 in
  let syn = Builder.build ds ~method_name:"naive" ~budget_words:2 in
  (match Error.guard (fun () -> Seg.make ds plan [| syn |]) with
  | Error (Error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "wrong synopsis count must be rejected");
  match Error.guard (fun () -> Seg.plan ~n:8 ~segments:9) with
  | Error (Error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "segments > n must be rejected"

(* --- planners --------------------------------------------------------- *)

let test_planner_invariants () =
  let plan = Seg.plan ~n:100 ~segments:7 in
  let wpu = Builder.words_per_unit "sap0" in
  let budget = 60 in
  let check_grants name grants =
    let s = Array.length plan.Seg.bounds in
    Alcotest.(check int) (name ^ ": one grant per segment") s
      (Array.length grants);
    let total = Array.fold_left ( + ) 0 grants in
    Alcotest.(check bool)
      (name ^ ": grants fit the budget minus stored totals")
      true
      (total <= budget - s);
    Array.iteri
      (fun i g ->
        let lo, hi = plan.Seg.bounds.(i) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: seg %d floor" name i)
          true (g >= wpu);
        Alcotest.(check bool)
          (Printf.sprintf "%s: seg %d width cap" name i)
          true
          (g <= (hi - lo + 1) * wpu))
      grants
  in
  check_grants "uniform"
    (Seg.uniform_split plan ~method_name:"sap0" ~budget_words:budget);
  let price ~seg ~units = 1000. /. float_of_int ((seg + 1) * units) in
  let g1 = Seg.greedy_split ~price plan ~method_name:"sap0" ~budget_words:budget in
  let g2 = Seg.greedy_split ~price plan ~method_name:"sap0" ~budget_words:budget in
  check_grants "greedy" g1;
  Alcotest.(check (array int)) "greedy is deterministic" g1 g2;
  (* flat curve: no grant helps, everyone keeps the floor *)
  let flat = Seg.greedy_split ~price:(fun ~seg:_ ~units:_ -> 7.) plan
      ~method_name:"sap0" ~budget_words:budget
  in
  Array.iter (fun g -> Alcotest.(check int) "flat curve keeps floor" wpu g) flat;
  (* a budget that cannot cover the floors is a typed error *)
  match
    Error.guard (fun () ->
        Seg.uniform_split plan ~method_name:"sap0" ~budget_words:(7 * 3))
  with
  | Error (Error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "underfunded split must be rejected"

(* The greedy planner must shift words toward the expensive segments. *)
let test_greedy_follows_the_error_curve () =
  let plan = Seg.plan ~n:40 ~segments:4 in
  (* segment 3 is catastrophically bad until it has 5 units *)
  let price ~seg ~units =
    if seg = 3 then if units >= 5 then 0. else 1e6 /. float_of_int units
    else 1. /. float_of_int units
  in
  let grants =
    Seg.greedy_split ~price plan ~method_name:"a0" ~budget_words:30
  in
  Alcotest.(check bool) "needy segment gets the most" true
    (Array.for_all (fun g -> grants.(3) >= g) grants)

(* On skewed data the greedy planner must beat an equal split without
   overspending: zipf-1024's mass sits in its first segment, where the
   uniform grant leaves most of the SSE. *)
let test_greedy_beats_uniform_on_skew () =
  let ds = Dataset.generate "zipf-1024" in
  let budget_words = 96 in
  let build planner =
    match
      Sup.build ~planner ds ~method_name:"point-opt" ~budget_words ~segments:8
    with
    | Ok (t, _) -> t
    | Error e -> Alcotest.failf "build: %s" (Error.to_string e)
  in
  let greedy = build `Greedy and uniform = build `Uniform in
  let sse_g = Seg.sse ds greedy and sse_u = Seg.sse ds uniform in
  if not (sse_g <= sse_u) then
    Alcotest.failf "greedy SSE %.6g > uniform SSE %.6g" sse_g sse_u;
  let words = Seg.storage_words greedy in
  if words > budget_words then
    Alcotest.failf "greedy spends %d words, budget %d" words budget_words

(* --- backoff ---------------------------------------------------------- *)

let test_backoff_policy () =
  let policy = { Sup.Backoff.default with Sup.Backoff.cap = 0.1 } in
  for seg = 0 to 3 do
    for attempt = 1 to 12 do
      let d = Sup.Backoff.delay policy ~seg ~attempt in
      Alcotest.(check bool) "delay positive" true (d > 0.);
      Alcotest.(check bool) "delay capped" true (d <= policy.Sup.Backoff.cap);
      Alcotest.(check (float 0.)) "delay deterministic" d
        (Sup.Backoff.delay policy ~seg ~attempt)
    done
  done;
  (* jitter state is per-segment: first delays must not all coincide *)
  let d0 = Sup.Backoff.delay policy ~seg:0 ~attempt:1 in
  let distinct =
    List.exists
      (fun seg -> Sup.Backoff.delay policy ~seg ~attempt:1 <> d0)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "jitter differs across segments" true distinct;
  (* a different seed moves the delays *)
  let reseeded = { policy with Sup.Backoff.seed = 99 } in
  Alcotest.(check bool) "seed changes the jitter" true
    (Sup.Backoff.delay reseeded ~seg:0 ~attempt:1 <> d0);
  match Sup.Backoff.delay policy ~seg:0 ~attempt:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempt 0 must be rejected"

(* --- the supervisor: healthy path ------------------------------------- *)

let build_bytes ?options ?policy ?sleep ?manifest_dir ?resume ?seg_poll_budget
    ?(planner = `Uniform) ?(method_name = "opt-a") ?(budget_words = 64)
    ?(segments = 8) ds =
  match
    Sup.build ?options ?policy ?sleep ?manifest_dir ?resume ?seg_poll_budget
      ~planner ds ~method_name ~budget_words ~segments
  with
  | Ok (t, report) -> (Seg.to_string t, report)
  | Error e -> Alcotest.failf "build failed: %s" (Error.to_string e)

let test_healthy_build_never_sleeps () =
  let ds = Dataset.generate "zipf-96" in
  let sleeps = ref [] in
  let sleep d = sleeps := d :: !sleeps in
  let _, report =
    build_bytes ~sleep ~method_name:"a0" ~budget_words:32 ~segments:4 ds
  in
  Alcotest.(check (list (float 0.))) "no sleeps on the healthy path" [] !sleeps;
  Alcotest.(check bool) "not degraded" false (Sup.degraded report);
  Array.iter
    (fun (s : Sup.seg_report) ->
      Alcotest.(check string) "delivered as requested" "a0" s.Sup.delivered;
      Alcotest.(check int) "no retries" 0 s.Sup.retries;
      Alcotest.(check bool) "nothing abandoned" true (s.Sup.abandoned = []))
    report.Sup.segs;
  Alcotest.(check bool) "storage within budget" true
    (report.Sup.storage_words <= report.Sup.budget_words)

(* --- retry and degradation -------------------------------------------- *)

let test_transient_faults_are_retried () =
  let ds = Dataset.generate "zipf-96" in
  let sleeps = ref [] in
  let sleep d = sleeps := !sleeps @ [ d ] in
  let policy = { Sup.Backoff.default with Sup.Backoff.retries = 3 } in
  Faults.arm ~count:2 "segment.build";
  Fun.protect ~finally:Faults.reset @@ fun () ->
  let _, report =
    build_bytes ~policy ~sleep ~method_name:"a0" ~budget_words:32 ~segments:4
      ds
  in
  Alcotest.(check bool) "not degraded" false (Sup.degraded report);
  Alcotest.(check int) "segment 0 retried twice" 2
    report.Sup.segs.(0).Sup.retries;
  Alcotest.(check int) "other segments untouched" 0
    report.Sup.segs.(1).Sup.retries;
  (* the recorded sleeps are exactly the policy's deterministic delays
     for segment 0 — backoff state is never shared across segments *)
  Alcotest.(check (list (float 0.)))
    "sleeps are the seeded per-segment delays"
    [
      Sup.Backoff.delay policy ~seg:0 ~attempt:1;
      Sup.Backoff.delay policy ~seg:0 ~attempt:2;
    ]
    !sleeps

let test_retries_exhaust_then_degrade () =
  let ds = Dataset.generate "zipf-128" in
  let sleeps = ref 0 in
  let sleep _ = incr sleeps in
  let policy = { Sup.Backoff.default with Sup.Backoff.retries = 0 } in
  (* two injected failures, zero retries: segment 0 burns its opt-a and
     opt-a-rounded rungs, then the a0 floor delivers *)
  Faults.arm ~count:2 "segment.build";
  Fun.protect ~finally:Faults.reset @@ fun () ->
  let _, report =
    build_bytes ~policy ~sleep ~method_name:"opt-a" ~budget_words:48
      ~segments:4 ds
  in
  Alcotest.(check bool) "degraded" true (Sup.degraded report);
  let s0 = report.Sup.segs.(0) in
  Alcotest.(check string) "segment 0 fell to the floor" "a0" s0.Sup.delivered;
  Alcotest.(check int) "both rungs abandoned" 2 (List.length s0.Sup.abandoned);
  List.iter
    (fun (rung, why) ->
      Alcotest.(check bool)
        (Printf.sprintf "abandoned %s names the injected fault" rung)
        true
        (String.length why >= 25
        && String.sub why 0 25 = "injected fault at segment"))
    s0.Sup.abandoned;
  Array.iteri
    (fun i (s : Sup.seg_report) ->
      if i > 0 then
        Alcotest.(check string)
          (Printf.sprintf "segment %d clean" i)
          "opt-a" s.Sup.delivered)
    report.Sup.segs;
  Alcotest.(check bool) "degraded build still fits the budget" true
    (report.Sup.storage_words <= report.Sup.budget_words);
  (* the aggregated report names the degraded segment and its reasons *)
  let lines = String.concat "\n" (Sup.report_lines report) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names seg 0" true (contains lines "seg 0");
  Alcotest.(check bool) "report carries the reason" true
    (contains lines "injected fault at segment.build");
  Alcotest.(check bool) "report announces degradation" true
    (contains lines "DEGRADED")

let test_commit_seam_is_retried () =
  let ds = Dataset.generate "zipf-96" in
  with_tmp_dir @@ fun dir ->
  Faults.arm ~count:1 "segment.commit";
  Fun.protect ~finally:Faults.reset @@ fun () ->
  let sleeps = ref 0 in
  let bytes, report =
    build_bytes ~sleep:(fun _ -> incr sleeps) ~manifest_dir:dir
      ~method_name:"a0" ~budget_words:32 ~segments:4 ds
  in
  Alcotest.(check bool) "commit retried (one sleep)" true (!sleeps = 1);
  Alcotest.(check int) "retry recorded on segment 0" 1
    report.Sup.segs.(0).Sup.retries;
  (* the store holds every segment and a done manifest *)
  let store = Store.open_dir dir in
  Alcotest.(check int) "four entries" 4 (List.length (Store.list store));
  let body =
    match ok_or_fail (Store.load_manifest store Store.Build) with
    | Some b -> b
    | None -> Alcotest.fail "no build manifest"
  in
  Alcotest.(check bool) "manifest records no pending segment" false
    (String.length body >= 7
    &&
    let rec has i =
      i + 7 <= String.length body
      && (String.sub body i 7 = "pending" || has (i + 1))
    in
    has 0);
  (* and an uninterrupted build without a store delivers the same bytes *)
  Faults.reset ();
  let bytes', _ = build_bytes ~method_name:"a0" ~budget_words:32 ~segments:4 ds in
  Alcotest.(check string) "bytes match the storeless build" bytes' bytes

let test_manifest_write_seam_is_retried () =
  let ds = Dataset.generate "zipf-96" in
  with_tmp_dir @@ fun dir ->
  Faults.arm ~count:1 "store.manifest";
  Fun.protect ~finally:Faults.reset @@ fun () ->
  let sleeps = ref 0 in
  let _, report =
    build_bytes ~sleep:(fun _ -> incr sleeps) ~manifest_dir:dir
      ~method_name:"a0" ~budget_words:32 ~segments:4 ds
  in
  Alcotest.(check bool) "manifest write retried" true (!sleeps >= 1);
  Alcotest.(check bool) "build completed clean" false (Sup.degraded report)

let test_atomic_seam_mid_manifest_is_retried () =
  let ds = Dataset.generate "zipf-96" in
  with_tmp_dir @@ fun dir ->
  Faults.arm ~count:1 "atomic.write";
  Fun.protect ~finally:Faults.reset @@ fun () ->
  let sleeps = ref 0 in
  let _, report =
    build_bytes ~sleep:(fun _ -> incr sleeps) ~manifest_dir:dir
      ~method_name:"a0" ~budget_words:32 ~segments:4 ds
  in
  Alcotest.(check bool) "atomic write retried" true (!sleeps >= 1);
  Alcotest.(check bool) "build completed clean" false (Sup.degraded report)

(* --- crash-safe resume ------------------------------------------------ *)

(* Kill the supervisor at EVERY segment boundary (deterministic
   poll-budget governor in Snapshot mode), resume, and require the
   final synopsis to match the uninterrupted build bit-for-bit.  The
   k-th boundary kill must find exactly k-1 committed segments. *)
let test_kill_at_every_boundary_and_resume () =
  let ds = Dataset.generate "zipf-256" in
  let segments = 8 in
  let baseline, _ = build_bytes ~segments ds in
  for k = 1 to segments + 1 do
    with_tmp_dir @@ fun dir ->
    let governor =
      Governor.create ~poll_budget:k ~deadline_mode:Governor.Snapshot ()
    in
    let options = { Builder.default_options with Builder.governor } in
    match
      Sup.build ~options ~manifest_dir:dir ~planner:`Uniform ds
        ~method_name:"opt-a" ~budget_words:64 ~segments
    with
    | Ok (t, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "budget %d outlives all boundaries" k)
          true (k > segments);
        Alcotest.(check string) "uninterrupted run matches baseline" baseline
          (Seg.to_string t)
    | Error (Error.Interrupted { checkpoint; _ }) ->
        Alcotest.(check bool)
          (Printf.sprintf "kill %d leaves boundaries to cross" k)
          true
          (k <= segments);
        Alcotest.(check bool) "interruption points at the manifest" true
          (Filename.basename checkpoint = "BUILD");
        let bytes, report =
          build_bytes ~manifest_dir:dir ~resume:true ~segments ds
        in
        Alcotest.(check string)
          (Printf.sprintf "kill at boundary %d resumes bit-identically" k)
          baseline bytes;
        let resumed =
          Array.fold_left
            (fun acc (s : Sup.seg_report) ->
              if s.Sup.resumed then acc + 1 else acc)
            0 report.Sup.segs
        in
        Alcotest.(check int)
          (Printf.sprintf "kill %d skipped the committed segments" k)
          (k - 1) resumed
    | Error e -> Alcotest.failf "kill %d: unexpected %s" k (Error.to_string e)
  done

(* A hard abort (injected crash, no snapshot, no typed Interrupted)
   must still leave a resumable manifest behind. *)
let test_abort_seam_then_resume () =
  let ds = Dataset.generate "zipf-256" in
  let baseline, _ = build_bytes ds in
  with_tmp_dir @@ fun dir ->
  Faults.arm ~count:1 "supervisor.abort";
  (Fun.protect ~finally:Faults.reset @@ fun () ->
   match
     Sup.build ~manifest_dir:dir ~planner:`Uniform ds ~method_name:"opt-a"
       ~budget_words:64 ~segments:8
   with
   | Ok _ -> Alcotest.fail "armed abort must kill the build"
   | Error e ->
       Alcotest.(check bool) "abort surfaces as the injected fault" true
         (Error.is_injected e));
  let bytes, _ = build_bytes ~manifest_dir:dir ~resume:true ds in
  Alcotest.(check string) "post-crash resume matches baseline" baseline bytes

(* Kill INSIDE a segment's exact DP (deterministic per-segment poll
   budget): the supervisor surfaces Interrupted, the segment snapshot
   survives, and the resumed build re-enters the DP mid-flight and
   still delivers the baseline bytes. *)
let test_inflight_segment_snapshot_resume () =
  let ds = Dataset.generate "zipf-256" in
  let baseline, _ = build_bytes ds in
  (* Expiry during UB seeding degrades (by design — the seed pins the Λ
     cap), so small budgets complete degraded; the interrupt window is
     the exact DP's once-per-row polls (segment width = 32 rows).  A
     step-8 scan cannot jump over it. *)
  let interrupted_at = ref None in
  let b = ref 2 in
  while !interrupted_at = None && !b <= 600 do
    with_tmp_dir (fun dir ->
        match
          Sup.build ~manifest_dir:dir ~planner:`Uniform ~seg_poll_budget:!b ds
            ~method_name:"opt-a" ~budget_words:64 ~segments:8
        with
        | Error (Error.Interrupted { stage; _ }) ->
            let snapshots =
              Array.to_list (Sys.readdir dir)
              |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
            in
            Alcotest.(check bool)
              (Printf.sprintf "budget %d wrote a segment snapshot" !b)
              true
              (List.length snapshots > 0);
            Alcotest.(check bool) "stage names the segment" true
              (String.length stage >= 9 && String.sub stage 0 9 = "segmented");
            let bytes, _ = build_bytes ~manifest_dir:dir ~resume:true ds in
            Alcotest.(check string)
              (Printf.sprintf "in-flight kill at budget %d resumes to baseline"
                 !b)
              baseline bytes;
            interrupted_at := Some !b
        | Ok _ | Error _ -> ());
    b := !b + 8
  done;
  match !interrupted_at with
  | Some _ -> ()
  | None -> Alcotest.fail "no poll budget interrupted a segment mid-DP"

(* Resuming against a manifest from a different build is refused with a
   typed corruption error, not silently mixed. *)
let test_resume_rejects_foreign_manifest () =
  let ds = Dataset.generate "zipf-256" in
  with_tmp_dir @@ fun dir ->
  let _ = build_bytes ~manifest_dir:dir ds in
  match
    Sup.build ~manifest_dir:dir ~resume:true ~planner:`Uniform ds
      ~method_name:"opt-a" ~budget_words:48 (* different budget *)
      ~segments:8
  with
  | Error (Error.Corrupt_checkpoint _) -> ()
  | Ok _ -> Alcotest.fail "foreign manifest must be refused"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

(* --- manifest fuzzing ------------------------------------------------- *)

(* >= 300 mutants of the BUILD manifest bytes (bit flips, truncations,
   garbage appends).  Every one must either be caught by the CRC frame
   or the parser, quarantined, and rebuilt from scratch — the result is
   always the baseline bytes, never a crash, never a brick. *)
let test_manifest_fuzz () =
  let ds = Dataset.generate "zipf-64" in
  let segments = 4 and budget_words = 24 in
  let build ~resume dir =
    build_bytes ~manifest_dir:dir ~resume ~method_name:"a0" ~budget_words
      ~segments ds
  in
  with_tmp_dir @@ fun dir ->
  let baseline, _ = build ~resume:false dir in
  let store = Store.open_dir dir in
  let manifest_path = Store.manifest_path store Store.Build in
  let pristine = read_file manifest_path in
  let rng = Random.State.make [| 0x5e6f |] in
  let len = String.length pristine in
  for i = 1 to 300 do
    let mutant =
      match Random.State.int rng 3 with
      | 0 ->
          (* flip one byte *)
          let pos = Random.State.int rng len in
          let b = Bytes.of_string pristine in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Random.State.int rng 255)));
          Bytes.to_string b
      | 1 ->
          (* torn write: truncate *)
          String.sub pristine 0 (Random.State.int rng len)
      | _ ->
          (* trailing garbage *)
          pristine ^ String.init (1 + Random.State.int rng 16) (fun _ ->
              Char.chr (Random.State.int rng 256))
    in
    if mutant <> pristine then begin
      write_file manifest_path mutant;
      let bytes, _ = build ~resume:true dir in
      if bytes <> baseline then
        Alcotest.failf "mutant %d changed the rebuilt synopsis" i
    end
  done;
  (* the damaged manifests were quarantined, not deleted *)
  let qdir = Filename.concat dir "quarantine" in
  Alcotest.(check bool) "quarantine holds the damaged manifests" true
    (Sys.file_exists qdir && Array.length (Sys.readdir qdir) > 0)

(* --- determinism across job counts ------------------------------------ *)

let test_jobs_determinism_twin () =
  let ds = Dataset.generate "zipf-512" in
  let build jobs dir =
    let options = { Builder.default_options with Builder.jobs } in
    build_bytes ~options ~manifest_dir:dir ~method_name:"point-opt"
      ~budget_words:64 ~segments:6 ~planner:`Greedy ds
  in
  with_tmp_dir @@ fun dir1 ->
  with_tmp_dir @@ fun dir4 ->
  let bytes1, report1 = build 1 dir1 in
  let bytes4, report4 = build 4 dir4 in
  Alcotest.(check string) "synopsis bytes identical across jobs" bytes1 bytes4;
  let manifest dir =
    match ok_or_fail (Store.load_manifest (Store.open_dir dir) Store.Build) with
    | Some body -> body
    | None -> Alcotest.fail "missing build manifest"
  in
  Alcotest.(check string) "manifest bytes identical across jobs"
    (manifest dir1) (manifest dir4);
  Alcotest.(check int) "same storage either way" report1.Sup.storage_words
    report4.Sup.storage_words;
  Array.iteri
    (fun i (s1 : Sup.seg_report) ->
      let s4 = report4.Sup.segs.(i) in
      Alcotest.(check string)
        (Printf.sprintf "seg %d delivered equal" i)
        s1.Sup.delivered s4.Sup.delivered;
      Alcotest.(check int)
        (Printf.sprintf "seg %d retries equal" i)
        s1.Sup.retries s4.Sup.retries)
    report1.Sup.segs

(* --- governor expiry formatting (satellite: describe_expiry) ----------- *)

(* A poll-budget expiry at a segment boundary must render poll counts,
   not fake seconds — everything goes through Governor.describe_expiry. *)
let test_poll_budget_expiry_renders_polls () =
  let ds = Dataset.generate "zipf-128" in
  let governor =
    Governor.create ~poll_budget:2 ~deadline_mode:Governor.Degrade ()
  in
  let options = { Builder.default_options with Builder.governor } in
  match
    Sup.build ~options ~planner:`Uniform ds ~method_name:"a0" ~budget_words:32
      ~segments:4
  with
  | Error (Error.Timeout { reason = Governor.Poll_budget; _ } as e) ->
      let rendered = Error.to_string e in
      let contains needle =
        let nh = String.length rendered and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub rendered i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "renders the poll-budget wording" true
        (contains "poll budget exhausted");
      Alcotest.(check bool) "renders poll counts" true (contains "polls")
  | Ok _ -> Alcotest.fail "poll budget must expire the build"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

(* Without a manifest directory there is nothing to resume: the same
   expiry in Snapshot mode degrades to a Timeout, not an Interrupted
   pointing at nothing. *)
let test_expiry_without_store_is_timeout () =
  let ds = Dataset.generate "zipf-128" in
  let governor =
    Governor.create ~poll_budget:2 ~deadline_mode:Governor.Snapshot ()
  in
  let options = { Builder.default_options with Builder.governor } in
  match
    Sup.build ~options ~planner:`Uniform ds ~method_name:"a0" ~budget_words:32
      ~segments:4
  with
  | Error (Error.Timeout _) -> ()
  | Error (Error.Interrupted _) ->
      Alcotest.fail "no store: expiry must not claim to be resumable"
  | Ok _ -> Alcotest.fail "poll budget must expire the build"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let () =
  Alcotest.run "segmented"
    [
      ( "query",
        [
          Alcotest.test_case "sse decomposition twin" `Quick
            test_sse_decomposition_twin;
          Alcotest.test_case "single segment = monolithic" `Quick
            test_single_segment_is_monolithic;
          Alcotest.test_case "interior segments exact" `Quick
            test_interior_segments_are_exact;
          Alcotest.test_case "make validation" `Quick test_make_validation;
        ] );
      ( "planner",
        [
          Alcotest.test_case "invariants" `Quick test_planner_invariants;
          Alcotest.test_case "follows the error curve" `Quick
            test_greedy_follows_the_error_curve;
          Alcotest.test_case "greedy beats uniform on skew" `Quick
            test_greedy_beats_uniform_on_skew;
        ] );
      ( "backoff",
        [ Alcotest.test_case "cap, determinism, seeding" `Quick test_backoff_policy ] );
      ( "supervisor",
        [
          Alcotest.test_case "healthy path never sleeps" `Quick
            test_healthy_build_never_sleeps;
          Alcotest.test_case "transient faults retried" `Quick
            test_transient_faults_are_retried;
          Alcotest.test_case "retries exhaust, then degrade" `Quick
            test_retries_exhaust_then_degrade;
          Alcotest.test_case "commit seam retried" `Quick
            test_commit_seam_is_retried;
          Alcotest.test_case "manifest seam retried" `Quick
            test_manifest_write_seam_is_retried;
          Alcotest.test_case "atomic seam retried" `Quick
            test_atomic_seam_mid_manifest_is_retried;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill at every boundary" `Quick
            test_kill_at_every_boundary_and_resume;
          Alcotest.test_case "hard abort then resume" `Quick
            test_abort_seam_then_resume;
          Alcotest.test_case "in-flight segment snapshot" `Quick
            test_inflight_segment_snapshot_resume;
          Alcotest.test_case "foreign manifest refused" `Quick
            test_resume_rejects_foreign_manifest;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "manifest mutants (300)" `Quick test_manifest_fuzz ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 twin" `Quick
            test_jobs_determinism_twin;
        ] );
      ( "governor",
        [
          Alcotest.test_case "poll-budget expiry renders polls" `Quick
            test_poll_budget_expiry_renders_polls;
          Alcotest.test_case "expiry without store is a timeout" `Quick
            test_expiry_without_store_is_timeout;
        ] );
    ]
