(* The level-parallel DP engines: the Rs_util.Pool fork-join
   primitive itself and its inline/dispatched rule, rs_cli's refusal
   of job counts it cannot run, bit-identical Dp/Opt_a results across
   job counts (bucketing, SSE, state counts), byte-identical OPT-A
   snapshots at matching positions, and OPT-A cross-jobs
   kill-and-resume (a snapshot taken at jobs=4 resumes at jobs=1 and
   vice versa). *)

module Pool = Rs_util.Pool
module Governor = Rs_util.Governor
module Prefix = Rs_util.Prefix
module Dp = Rs_histogram.Dp
module Opt_a = Rs_histogram.Opt_a
module Bucket = Rs_histogram.Bucket
module Cost = Rs_histogram.Cost
module Histogram = Rs_histogram.Histogram
module Rng = Rs_dist.Rng

let jobs_sweep = [ 1; 2; 4 ]

let with_tmp suffix f =
  let path = Filename.temp_file "rs_par" suffix in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      let tmp = path ^ ".tmp" in
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- the pool itself --- *)

let test_pool_runs_every_index_once () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun (lo, hi) ->
              let width = max 0 (hi - lo + 1) in
              let marks = Array.init width (fun _ -> Atomic.make 0) in
              Pool.run pool ~lo ~hi (fun i -> Atomic.incr marks.(i - lo));
              Array.iteri
                (fun off m ->
                  Alcotest.(check int)
                    (Printf.sprintf "jobs=%d index %d" jobs (lo + off))
                    1 (Atomic.get m))
                marks)
            [ (0, 0); (0, 99); (5, 11); (3, 200) ]))
    jobs_sweep

let test_pool_empty_range_is_noop () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let ran = ref false in
      Pool.run pool ~lo:10 ~hi:9 (fun _ -> ran := true);
      Alcotest.(check bool) "hi < lo runs nothing" false !ran)

let test_pool_reraises_smallest_failing_index () =
  (* Indices are claimed in ascending order off one atomic counter, so
     index 3 always executes even if index 7 poisons the pool first —
     and the smallest failure is what surfaces, deterministically. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match
            Pool.run pool ~lo:0 ~hi:20 (fun i ->
                if i = 3 || i = 7 then failwith (string_of_int i))
          with
          | () -> Alcotest.failf "jobs=%d: must raise" jobs
          | exception Failure got ->
              Alcotest.(check string)
                (Printf.sprintf "jobs=%d smallest index" jobs)
                "3" got))
    jobs_sweep

let test_pool_is_reusable_across_runs () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let acc = Array.make 50 0 in
      for round = 1 to 5 do
        Pool.run pool ~lo:0 ~hi:49 (fun i -> acc.(i) <- acc.(i) + round)
      done;
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "cell %d" i) 15 v)
        acc)

let test_pool_survives_a_failed_run () =
  Pool.with_pool ~jobs:2 (fun pool ->
      (match Pool.run pool ~lo:0 ~hi:9 (fun _ -> failwith "boom") with
      | () -> Alcotest.fail "must raise"
      | exception Failure _ -> ());
      (* The pool is still serviceable after a poisoned run. *)
      let hits = Atomic.make 0 in
      Pool.run pool ~lo:0 ~hi:9 (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "next run completes" 10 (Atomic.get hits))

let test_with_pool_shuts_down_on_exception () =
  match Pool.with_pool ~jobs:4 (fun _ -> failwith "escape") with
  | () -> Alcotest.fail "must propagate"
  | exception Failure msg -> Alcotest.(check string) "propagated" "escape" msg

(* --- inline or dispatched: one rule, scheduling moves, nothing else --- *)

(* Runs [lo..hi] on [pool] and reports whether any index left the
   coordinator.  Each coordinator-run body holds briefly, so on a
   dispatching pool the coordinator cannot drain the whole range before
   a worker wakes. *)
let strays pool ~lo ~hi =
  let self = Domain.self () in
  let strayed = Atomic.make false in
  Pool.run pool ~lo ~hi (fun _ ->
      if Domain.self () <> self then Atomic.set strayed true
      else Unix.sleepf 0.001);
  Atomic.get strayed

let test_pool_modes_agree () =
  (* Every contract the dispatched path promises — each index exactly
     once, reuse across runs, smallest failing index — holds verbatim
     on the inline path (jobs = 1) and on the jobs = 4 pool, which
     dispatches unless the machine has one core. *)
  List.iter
    (fun jobs ->
      let name fmt = Printf.sprintf ("jobs=%d: " ^^ fmt) jobs in
      Pool.with_pool ~jobs (fun pool ->
          let marks = Array.init 100 (fun _ -> Atomic.make 0) in
          for _round = 1 to 2 do
            Pool.run pool ~lo:0 ~hi:99 (fun i -> Atomic.incr marks.(i))
          done;
          Array.iteri
            (fun i m ->
              Alcotest.(check int) (name "index %d" i) 2 (Atomic.get m))
            marks;
          (match
             Pool.run pool ~lo:0 ~hi:20 (fun i ->
                 if i = 3 || i = 7 then failwith (string_of_int i))
           with
          | () -> Alcotest.failf "jobs=%d: must raise" jobs
          | exception Failure got ->
              Alcotest.(check string) (name "smallest index") "3" got);
          (* Still serviceable after the poisoned run. *)
          let hits = Atomic.make 0 in
          Pool.run pool ~lo:0 ~hi:9 (fun _ -> Atomic.incr hits);
          Alcotest.(check int) (name "after failure") 10 (Atomic.get hits)))
    [ 1; 4 ]

let test_pool_sequential_stays_on_coordinator () =
  Alcotest.(check bool) "jobs=1 is inline" true (Pool.inline ~jobs:1);
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check bool) "every index inline" false (strays pool ~lo:0 ~hi:63))

let test_pool_parallel_reaches_workers () =
  (* A jobs = 4 pool dispatches, so a worker claims an index, exactly
     when the machine has two or more cores; on one core it stays on
     the coordinator.  Either way the bit-identity tests below cover a
     path that really ran: on a multi-core machine, the workers. *)
  let inline = Pool.inline ~jobs:4 in
  Alcotest.(check bool)
    "inline iff one core" (Domain.recommended_domain_count () < 2) inline;
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check bool)
        "a worker claimed an index iff the pool dispatches" (not inline)
        (strays pool ~lo:0 ~hi:63))

(* --- rs_cli refuses job counts it cannot run --- *)

let cli_exe =
  match Sys.getenv_opt "RS_CLI" with
  | Some p -> p
  | None -> Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/rs_cli.exe"

(* Runs rs_cli with [args] and RS_JOBS set to [rs_jobs] (unset when
   [None]); returns the exit status, stdout and stderr. *)
let run_cli ?rs_jobs args =
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"RS_JOBS=" kv))
    |> fun env ->
    Array.of_list
      (match rs_jobs with Some v -> ("RS_JOBS=" ^ v) :: env | None -> env)
  in
  with_tmp ".out" @@ fun out ->
  with_tmp ".err" @@ fun err ->
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_out = open_w out and fd_err = open_w err in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env cli_exe (Array.of_list (cli_exe :: args)) env fd_in
      fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let status = snd (Unix.waitpid [] pid) in
  (status, read_file out, read_file err)

(* Every refusal happens before the dataset is read: the dataset named
   here does not exist, so a check that came later would report the
   dataset instead, and no build (and no domain) can start either way. *)
let test_cli_refuses_bad_jobs () =
  if not (Sys.file_exists cli_exe) then Alcotest.failf "rs_cli not found at %s" cli_exe;
  let refused ?rs_jobs what args ~names =
    let status, out, err = run_cli ?rs_jobs args in
    Alcotest.(check bool) (what ^ ": exit 2") true (status = Unix.WEXITED 2);
    Alcotest.(check string) (what ^ ": nothing printed") "" out;
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr names %s (%S)" what names err)
      true
      (String.starts_with ~prefix:("rs_cli: " ^ names ^ " must be") err)
  in
  let missing = [ "-d"; "no-such-dataset" ] in
  List.iter
    (fun flag -> refused flag ([ "build" ] @ missing @ [ flag ]) ~names:"--jobs")
    [ "--jobs=0"; "--jobs=-3"; "--jobs=129"; "--jobs=100000" ];
  refused "evaluate --jobs=0" ([ "evaluate" ] @ missing @ [ "--jobs=0" ]) ~names:"--jobs";
  refused "scale --jobs=0" [ "scale"; "--quick"; "--jobs=0" ] ~names:"--jobs";
  List.iter
    (fun v ->
      refused ~rs_jobs:v ("RS_JOBS=" ^ v) ([ "build" ] @ missing) ~names:"RS_JOBS";
      refused ~rs_jobs:v ("figure1 RS_JOBS=" ^ v) ([ "figure1" ] @ missing)
        ~names:"RS_JOBS")
    [ "abc"; "0"; "129"; "" ];
  (* The bounds themselves pass the check and reach the dataset. *)
  List.iter
    (fun args ->
      let status, _, err = run_cli (("build" :: missing) @ args) in
      Alcotest.(check bool) "exit 2" true (status = Unix.WEXITED 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s accepted (%S)" (String.concat " " args) err)
        true
        (not (String.starts_with ~prefix:"rs_cli: --jobs" err)))
    [ [ "--jobs=1" ]; [ "--jobs=128" ] ]

(* --- Dp: identical results for every job count --- *)

let dp_cost p =
  let ctx = Cost.make p in
  fun ~l ~r -> Cost.a0_bucket ctx ~l ~r

let check_dp_equal label (a : Dp.result) (b : Dp.result) =
  if not (Float.equal a.Dp.cost b.Dp.cost) then
    Alcotest.failf "%s: cost %.17g <> %.17g" label a.Dp.cost b.Dp.cost;
  Alcotest.(check (array int))
    (label ^ ": rights")
    (Bucket.rights a.Dp.bucketing)
    (Bucket.rights b.Dp.bucketing)

let test_dp_jobs_deterministic_random () =
  let rng = Rng.create 0x9A7 in
  for trial = 1 to 25 do
    let n = 4 + Rng.int rng 27 in
    let data = Helpers.random_int_data rng ~n ~hi:20 in
    let p = Helpers.prefix_of data in
    let cost = dp_cost p in
    let buckets = 1 + Rng.int rng 4 in
    let base = Dp.solve ~n ~buckets ~cost () in
    List.iter
      (fun jobs ->
        check_dp_equal
          (Printf.sprintf "trial %d jobs %d" trial jobs)
          base
          (Dp.solve ~jobs ~n ~buckets ~cost ()))
      jobs_sweep
  done

let test_dp_jobs_deterministic_qcheck =
  Helpers.qtest ~count:60 "dp: jobs=2 == jobs=1" Helpers.small_data_arb
    (fun data ->
      let p = Helpers.prefix_of data in
      let n = Prefix.n p in
      let cost = dp_cost p in
      let seq = Dp.solve ~n ~buckets:3 ~cost () in
      let par = Dp.solve ~jobs:2 ~n ~buckets:3 ~cost () in
      Float.equal seq.Dp.cost par.Dp.cost
      && Bucket.rights seq.Dp.bucketing = Bucket.rights par.Dp.bucketing)

(* --- Opt_a: identical results, state counts included --- *)

let opt_a_key_cap = 100_000

let check_opt_a_equal label (a : Opt_a.result) (b : Opt_a.result) =
  if not (Float.equal a.Opt_a.sse b.Opt_a.sse) then
    Alcotest.failf "%s: sse %.17g <> %.17g" label a.Opt_a.sse b.Opt_a.sse;
  Alcotest.(check (array int))
    (label ^ ": rights")
    (Bucket.rights (Histogram.bucketing a.Opt_a.histogram))
    (Bucket.rights (Histogram.bucketing b.Opt_a.histogram));
  Alcotest.(check int) (label ^ ": states") a.Opt_a.states b.Opt_a.states

let test_opt_a_jobs_deterministic_random () =
  let rng = Rng.create 0xB0B in
  for trial = 1 to 12 do
    let n = 4 + Rng.int rng 10 in
    let data = Helpers.random_int_data rng ~n ~hi:15 in
    let p = Helpers.prefix_of data in
    let buckets = 1 + Rng.int rng 4 in
    let base = Opt_a.build_exact ~key_cap:opt_a_key_cap p ~buckets in
    List.iter
      (fun jobs ->
        check_opt_a_equal
          (Printf.sprintf "trial %d jobs %d" trial jobs)
          base
          (Opt_a.build_exact ~key_cap:opt_a_key_cap ~jobs p ~buckets))
      jobs_sweep
  done

let test_opt_a_beam_jobs_deterministic () =
  (* Beam truncation reorders nothing across job counts either: the
     truncated survivors (a function of Ktbl layout) must agree. *)
  let data = [| 9.; 1.; 4.; 4.; 7.; 2.; 8.; 3.; 6.; 5.; 2.; 7. |] in
  let p = Prefix.create data in
  List.iter
    (fun beam ->
      let base = Opt_a.build_exact ~key_cap:opt_a_key_cap ~beam p ~buckets:4 in
      List.iter
        (fun jobs ->
          check_opt_a_equal
            (Printf.sprintf "beam %d jobs %d" beam jobs)
            base
            (Opt_a.build_exact ~key_cap:opt_a_key_cap ~beam ~jobs p ~buckets:4))
        jobs_sweep)
    [ 1; 3; 17 ]

let test_opt_a_too_many_states_all_jobs () =
  let data = Array.init 14 (fun i -> float_of_int ((i * 5 mod 11) + 1)) in
  let p = Prefix.create data in
  List.iter
    (fun jobs ->
      match
        Opt_a.build_exact ~key_cap:opt_a_key_cap ~max_states:40 ~jobs p
          ~buckets:4
      with
      | _ -> Alcotest.failf "jobs=%d: 40 states must not suffice" jobs
      | exception Opt_a.Too_many_states { limit; _ } ->
          Alcotest.(check int) "limit echoed" 40 limit)
    jobs_sweep

(* --- snapshots: byte-identical at matching positions --- *)

let opt_a_data = [| 1.; 3.; 5.; 11.; 12.; 13.; 2.; 8.; 4.; 6. |]
let opt_a_buckets = 4

let dp_rows ~n ~b =
  let rows = ref 0 in
  for k = 1 to b do
    rows := !rows + (n - k + 1)
  done;
  !rows

(* The snapshot body carries a "next <k> <i>" resume-position line; key
   each captured snapshot by it so byte comparison pairs up snapshots
   taken at the same DP position under different job counts. *)
let next_line_of bytes =
  let needle = "\nnext " in
  let rec find from =
    if from + String.length needle > String.length bytes then None
    else if String.sub bytes from (String.length needle) = needle then Some from
    else find (from + 1)
  in
  match find 0 with
  | None -> Alcotest.fail "snapshot has no next-position line"
  | Some at ->
      let stop = String.index_from bytes (at + 1) '\n' in
      String.sub bytes (at + 1) (stop - at - 1)

let collect_opt_a_snapshots ~jobs =
  let p = Prefix.create opt_a_data in
  let rows = dp_rows ~n:(Prefix.n p) ~b:opt_a_buckets in
  let snaps = Hashtbl.create 16 in
  for budget = 1 to rows do
    with_tmp ".ckpt" (fun path ->
        let governor =
          Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:budget
            ()
        in
        match
          Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor
            ~checkpoint_path:path ~jobs p ~buckets:opt_a_buckets
        with
        | _ -> ()
        | exception Governor.Interrupted _ ->
            let bytes = read_file path in
            Hashtbl.replace snaps (next_line_of bytes) bytes)
  done;
  snaps

let test_opt_a_snapshot_bytes_match_across_jobs () =
  let seq = collect_opt_a_snapshots ~jobs:1 in
  List.iter
    (fun jobs ->
      let par = collect_opt_a_snapshots ~jobs in
      let compared = ref 0 in
      Hashtbl.iter
        (fun pos bytes ->
          match Hashtbl.find_opt seq pos with
          | None ->
              Alcotest.failf
                "jobs=%d snapshot at %S has no sequential counterpart" jobs pos
          | Some seq_bytes ->
              incr compared;
              if bytes <> seq_bytes then
                Alcotest.failf "jobs=%d snapshot at %S differs from jobs=1"
                  jobs pos)
        par;
      (* Parallel polls sit at chunk barriers — a strict subset of the
         sequential per-cell polls — but the subset must not be empty. *)
      if !compared = 0 then
        Alcotest.failf "jobs=%d produced no comparable snapshots" jobs)
    [ 2; 4 ]

(* --- cross-jobs kill-and-resume --- *)

let opt_a_base () =
  Opt_a.build_exact ~key_cap:opt_a_key_cap
    (Prefix.create opt_a_data)
    ~buckets:opt_a_buckets

let test_opt_a_cross_jobs_resume () =
  let p = Prefix.create opt_a_data in
  let base = opt_a_base () in
  let rows = dp_rows ~n:(Prefix.n p) ~b:opt_a_buckets in
  let resumed_some = ref false in
  (* Interrupt a parallel run, finish it sequentially — and the
     reverse.  Either way the final answer is the uninterrupted one. *)
  List.iter
    (fun (kill_jobs, resume_jobs) ->
      for budget = 1 to rows do
        with_tmp ".ckpt" (fun path ->
            let governor =
              Governor.create ~deadline_mode:Governor.Snapshot
                ~poll_budget:budget ()
            in
            match
              Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor
                ~checkpoint_path:path ~jobs:kill_jobs p ~buckets:opt_a_buckets
            with
            | r ->
                check_opt_a_equal
                  (Printf.sprintf "budget %d completed" budget)
                  base r
            | exception Governor.Interrupted { checkpoint; _ } ->
                resumed_some := true;
                check_opt_a_equal
                  (Printf.sprintf "budget %d kill@%d resume@%d" budget
                     kill_jobs resume_jobs)
                  base
                  (Opt_a.build_exact ~key_cap:opt_a_key_cap
                     ~resume_from:checkpoint ~jobs:resume_jobs p
                     ~buckets:opt_a_buckets))
      done)
    [ (4, 1); (1, 4); (2, 2) ];
  Alcotest.(check bool) "at least one interruption" true !resumed_some

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "every index once" `Quick
            test_pool_runs_every_index_once;
          Alcotest.test_case "empty range" `Quick test_pool_empty_range_is_noop;
          Alcotest.test_case "smallest failure wins" `Quick
            test_pool_reraises_smallest_failing_index;
          Alcotest.test_case "reusable" `Quick test_pool_is_reusable_across_runs;
          Alcotest.test_case "survives failure" `Quick
            test_pool_survives_a_failed_run;
          Alcotest.test_case "with_pool on exception" `Quick
            test_with_pool_shuts_down_on_exception;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "modes agree" `Quick test_pool_modes_agree;
          Alcotest.test_case "sequential stays inline" `Quick
            test_pool_sequential_stays_on_coordinator;
          Alcotest.test_case "parallel reaches workers" `Quick
            test_pool_parallel_reaches_workers;
        ] );
      ( "cli",
        [ Alcotest.test_case "bad --jobs/RS_JOBS refused" `Quick test_cli_refuses_bad_jobs ] );
      ( "dp-determinism",
        [
          Alcotest.test_case "random sweeps" `Quick
            test_dp_jobs_deterministic_random;
          test_dp_jobs_deterministic_qcheck;
        ] );
      ( "opt-a-determinism",
        [
          Alcotest.test_case "random sweeps" `Quick
            test_opt_a_jobs_deterministic_random;
          Alcotest.test_case "beam truncation" `Quick
            test_opt_a_beam_jobs_deterministic;
          Alcotest.test_case "state budget" `Quick
            test_opt_a_too_many_states_all_jobs;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_opt_a_snapshot_bytes_match_across_jobs;
        ] );
      ( "cross-jobs-resume",
        [
          Alcotest.test_case "opt-a kill/resume sweep" `Quick
            test_opt_a_cross_jobs_resume;
        ] );
    ]
