(* Crash-safety: the monotonic clock, the checkpoint-aware governor, the
   CRC-framed snapshot container and its atomic-write protocol, the
   interval DP's poll cadence, OPT-A kill-and-resume (bit-identical
   results), the snapshot fuzzer,
   and the durable synopsis store under fault injection. *)

module Error = Rs_util.Error
module Faults = Rs_util.Faults
module Governor = Rs_util.Governor
module Mclock = Rs_util.Mclock
module Checkpoint = Rs_util.Checkpoint
module Prefix = Rs_util.Prefix
module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module Codec = Rs_core.Codec
module Store = Rs_core.Store
module Synopsis = Rs_core.Synopsis
module Dp = Rs_histogram.Dp
module Opt_a = Rs_histogram.Opt_a
module Bucket = Rs_histogram.Bucket
module Cost = Rs_histogram.Cost
module Histogram = Rs_histogram.Histogram
module Rng = Rs_dist.Rng

let tmp_path suffix =
  let path = Filename.temp_file "rs_ckpt" suffix in
  Sys.remove path;
  path

let with_tmp suffix f =
  let path = tmp_path suffix in
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

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = tmp_path ".store" in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- monotonic clock --- *)

let test_mclock_non_decreasing () =
  let prev = ref (Mclock.now ()) in
  for _ = 1 to 1000 do
    let t = Mclock.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %f < %f" t !prev;
    prev := t
  done

(* --- governor: poll budget, checkpoint interval, snapshot mode --- *)

let test_poll_budget_expires_exactly () =
  let g = Governor.create ~poll_budget:3 () in
  (match Governor.poll g with
  | Governor.Continue -> ()
  | _ -> Alcotest.fail "poll 1 of budget 3 should continue");
  (match Governor.poll g with
  | Governor.Continue -> ()
  | _ -> Alcotest.fail "poll 2 of budget 3 should continue");
  (match Governor.poll g with
  | Governor.Expired { resumable; _ } ->
      Alcotest.(check bool) "Degrade mode is not resumable" false resumable
  | _ -> Alcotest.fail "poll 3 of budget 3 should expire");
  Alcotest.(check bool) "expired" true (Governor.expired g)

let test_snapshot_mode_is_resumable () =
  let g =
    Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:1 ()
  in
  match Governor.poll g with
  | Governor.Expired { resumable; _ } ->
      Alcotest.(check bool) "Snapshot mode is resumable" true resumable
  | _ -> Alcotest.fail "budget 1 should expire on the first poll"

let test_checkpoint_interval_fires () =
  let g = Governor.create ~checkpoint_interval:0. () in
  (match Governor.poll g with
  | Governor.Checkpoint_due -> ()
  | _ -> Alcotest.fail "zero interval should be due at every poll");
  match Governor.poll g with
  | Governor.Checkpoint_due -> ()
  | _ -> Alcotest.fail "still due at the next poll"

let test_unlimited_never_expires () =
  for _ = 1 to 100 do
    match Governor.poll Governor.unlimited with
    | Governor.Continue -> ()
    | _ -> Alcotest.fail "unlimited must always continue"
  done

let test_check_still_raises () =
  let g = Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:1 () in
  match Governor.check g ~stage:"t" with
  | () -> Alcotest.fail "check on an expired governor must raise"
  | exception Governor.Deadline_exceeded { stage; _ } ->
      Alcotest.(check string) "stage" "t" stage

(* --- checkpoint container --- *)

let test_container_roundtrip () =
  with_tmp ".ckpt" (fun path ->
      let body = "alpha 1\nbeta -0x1.8p+1\n\ngamma with spaces\n" in
      Checkpoint.save ~path ~kind:"test-kind" body;
      match Checkpoint.load ~path ~kind:"test-kind" with
      | Ok got -> Alcotest.(check string) "body survives" body got
      | Error e -> Alcotest.failf "load failed: %s" (Error.to_string e))

let test_container_wrong_kind () =
  with_tmp ".ckpt" (fun path ->
      Checkpoint.save ~path ~kind:"kind-a" "body\n";
      match Checkpoint.load ~path ~kind:"kind-b" with
      | Error (Error.Corrupt_checkpoint _) -> ()
      | Ok _ -> Alcotest.fail "wrong kind must be corrupt"
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e))

let test_container_missing_file () =
  match Checkpoint.load ~path:"/nonexistent/rs.ckpt" ~kind:"k" with
  | Error (Error.Io_failure _) -> ()
  | Ok _ -> Alcotest.fail "missing file must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let test_atomic_write_preserves_old_on_torn () =
  with_tmp ".ckpt" (fun path ->
      Checkpoint.save ~path ~kind:"k" "old body\n";
      Faults.arm "atomic.torn";
      (match Checkpoint.save ~path ~kind:"k" "new body that dies halfway\n" with
      | () -> Alcotest.fail "armed torn write must raise"
      | exception Faults.Injected _ -> ());
      Faults.reset ();
      (* The destination was never touched: the tear happened in the
         temp file, before the rename. *)
      match Checkpoint.load ~path ~kind:"k" with
      | Ok body -> Alcotest.(check string) "old body intact" "old body\n" body
      | Error e -> Alcotest.failf "old file corrupt: %s" (Error.to_string e))

let test_atomic_write_preserves_old_on_rename_failure () =
  with_tmp ".ckpt" (fun path ->
      Checkpoint.save ~path ~kind:"k" "old body\n";
      Faults.arm "atomic.rename";
      (match Checkpoint.save ~path ~kind:"k" "new body\n" with
      | () -> Alcotest.fail "armed rename must raise"
      | exception Faults.Injected _ -> ());
      Faults.reset ();
      match Checkpoint.load ~path ~kind:"k" with
      | Ok body -> Alcotest.(check string) "old body intact" "old body\n" body
      | Error e -> Alcotest.failf "old file corrupt: %s" (Error.to_string e))

let test_atomic_write_seam_fires_before_bytes () =
  with_tmp ".ckpt" (fun path ->
      Faults.arm "atomic.write";
      (match Checkpoint.write_atomic ~path "content" with
      | () -> Alcotest.fail "armed write must raise"
      | exception Faults.Injected _ -> ());
      Faults.reset ();
      Alcotest.(check bool) "nothing written" false (Sys.file_exists path))

(* --- Dp governor cadence --- *)

let dp_data = [| 1.; 3.; 5.; 11.; 12.; 13.; 2.; 8. |]

let dp_cost p =
  let ctx = Cost.make p in
  fun ~l ~r -> Cost.a0_bucket ctx ~l ~r

(* Exhaustive minimum of [Σ cost] over partitions of [1..n] into at most
   [buckets] parts — the brute-force twin for the DP. *)
let brute_best ~n ~buckets ~cost =
  let best = ref Float.infinity in
  (* choose rights: increasing positions ending at n *)
  let rec go last parts acc =
    if parts > buckets then ()
    else if last = n then (if acc < !best then best := acc)
    else
      for r = last + 1 to n do
        go r (parts + 1) (acc +. cost ~l:(last + 1) ~r)
      done
  in
  go 0 0 0.;
  !best

let dp_rows ~n ~b =
  let rows = ref 0 in
  for k = 1 to b do
    rows := !rows + (n - k + 1)
  done;
  !rows

(* The level engine checks its governor once per (tile, cell) visited,
   tiles being [dp_tile_j] = 256 candidate splits wide: level k sweeps
   tiles starting at k−1, k−1+256, … up to the last finite split — 0 at
   level 1 (row 0 is finite only at column 0), n−1 above — and a tile
   starting at [t] visits cells [max k (t+1) .. n].  While n ≤ 256 that
   is one poll per cell.  Segmented builds size deterministic poll
   budgets from this count, so it is pinned exactly. *)
let tile_cell_polls ~n ~b =
  let polls = ref 0 in
  for k = 1 to b do
    let last = if k = 1 then 0 else n - 1 in
    let t = ref (k - 1) in
    while !t <= last do
      polls := !polls + (n - max k (!t + 1) + 1);
      t := !t + 256
    done
  done;
  !polls

let expect_expiry ~n ~buckets ~cost budget =
  let governor = Governor.create ~poll_budget:budget () in
  match Dp.solve ~governor ~stage:"dp-test" ~n ~buckets ~cost () with
  | _ -> Alcotest.failf "budget %d should expire" budget
  | exception Governor.Deadline_exceeded { stage; reason; _ } ->
      Alcotest.(check string) "stage" "dp-test" stage;
      Alcotest.(check bool) "poll budget" true (reason = Governor.Poll_budget)

let expect_completion ~n ~buckets ~cost ~base budget =
  let r =
    Dp.solve ~governor:(Governor.create ~poll_budget:budget ()) ~n ~buckets
      ~cost ()
  in
  if not (Float.equal r.Dp.cost base.Dp.cost) then
    Alcotest.failf "budget %d: cost %.17g <> %.17g" budget r.Dp.cost
      base.Dp.cost;
  Alcotest.(check (array int))
    (Printf.sprintf "budget %d: rights" budget)
    (Bucket.rights base.Dp.bucketing)
    (Bucket.rights r.Dp.bucketing)

let test_dp_poll_per_cell () =
  let p = Prefix.create dp_data in
  let n = Prefix.n p in
  let buckets = 3 in
  let cost = dp_cost p in
  let base = Dp.solve ~n ~buckets ~cost () in
  Helpers.check_close ~tol:1e-9 "dp = brute force" base.Dp.cost
    (brute_best ~n ~buckets ~cost);
  let cells = dp_rows ~n ~b:buckets in
  Alcotest.(check int) "one poll per cell" cells
    (tile_cell_polls ~n ~b:buckets);
  (* Every budget up to the cell count expires; one more completes. *)
  for budget = 1 to cells do
    expect_expiry ~n ~buckets ~cost budget
  done;
  expect_completion ~n ~buckets ~cost ~base (cells + 1)

let test_dp_poll_per_tile_cell () =
  let n = 600 and buckets = 3 in
  let data = Array.init n (fun i -> float_of_int (((i * 37) + 11) mod 97)) in
  let cost = dp_cost (Prefix.create data) in
  let base = Dp.solve ~n ~buckets ~cost () in
  let polls = tile_cell_polls ~n ~b:buckets in
  (* 600 + 1029 + 1026: one tile at level 1, three at levels 2 and 3,
     against 1797 cells *)
  Alcotest.(check int) "tile-cell polls" 2655 polls;
  expect_expiry ~n ~buckets ~cost polls;
  expect_completion ~n ~buckets ~cost ~base (polls + 1)

(* --- OPT-A kill-and-resume --- *)

let opt_a_data = [| 1.; 3.; 5.; 11.; 12.; 13.; 2.; 8.; 4.; 6. |]
let opt_a_key_cap = 100_000
let opt_a_buckets = 4

let opt_a_base () =
  let p = Prefix.create opt_a_data in
  Opt_a.build_exact ~key_cap:opt_a_key_cap p ~buckets:opt_a_buckets

let check_same_result budget base (r : Opt_a.result) =
  let label what = Printf.sprintf "budget %d: %s" budget what in
  if not (Float.equal r.Opt_a.sse base.Opt_a.sse) then
    Alcotest.failf "%s: %.17g <> %.17g" (label "sse") r.Opt_a.sse base.Opt_a.sse;
  Alcotest.(check (array int)) (label "rights")
    (Bucket.rights (Histogram.bucketing base.Opt_a.histogram))
    (Bucket.rights (Histogram.bucketing r.Opt_a.histogram));
  Alcotest.(check int) (label "states") base.Opt_a.states r.Opt_a.states

let test_opt_a_kill_and_resume_everywhere () =
  let p = Prefix.create opt_a_data in
  let base = opt_a_base () in
  (* Brute-force twin on the range-SSE objective: the DP's answer equals
     the histogram's true range SSE, interrupted or not. *)
  Helpers.check_close ~tol:1e-6 "opt-a sse = brute sse" base.Opt_a.sse
    (Helpers.hist_sse p base.Opt_a.histogram);
  let rows = dp_rows ~n:(Prefix.n p) ~b:opt_a_buckets in
  let completed = ref 0 in
  for budget = 1 to rows + 1 do
    with_tmp ".ckpt" (fun path ->
        let governor =
          Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:budget
            ()
        in
        match
          Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor
            ~checkpoint_path:path p ~buckets:opt_a_buckets
        with
        | r ->
            incr completed;
            check_same_result budget base r
        | exception Governor.Interrupted { checkpoint; _ } ->
            let resumed =
              Opt_a.build_exact ~key_cap:opt_a_key_cap ~resume_from:checkpoint
                p ~buckets:opt_a_buckets
            in
            check_same_result budget base resumed)
  done;
  Alcotest.(check bool) "the largest budget completes" true (!completed >= 1)

let test_opt_a_double_interrupt_chain () =
  (* Interrupt, resume with another tiny budget (interrupting again from
     the snapshot), resume once more to completion: snapshots chain. *)
  let p = Prefix.create opt_a_data in
  let base = opt_a_base () in
  with_tmp ".ckpt" (fun path ->
      let g1 =
        Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:5 ()
      in
      (match
         Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor:g1
           ~checkpoint_path:path p ~buckets:opt_a_buckets
       with
      | _ -> Alcotest.fail "first run should interrupt"
      | exception Governor.Interrupted _ -> ());
      let g2 =
        Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:7 ()
      in
      (match
         Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor:g2
           ~checkpoint_path:path ~resume_from:path p ~buckets:opt_a_buckets
       with
      | _ -> Alcotest.fail "second run should interrupt again"
      | exception Governor.Interrupted _ -> ());
      let final =
        Opt_a.build_exact ~key_cap:opt_a_key_cap ~resume_from:path p
          ~buckets:opt_a_buckets
      in
      check_same_result 0 base final)

let test_opt_a_periodic_checkpoint_resume () =
  (* checkpoint_interval 0 → a snapshot every row; kill the process
     abruptly (simulated by Interrupted at an arbitrary later row) and
     resume from the periodic snapshot. *)
  let p = Prefix.create opt_a_data in
  let base = opt_a_base () in
  with_tmp ".ckpt" (fun path ->
      let governor =
        Governor.create ~deadline_mode:Governor.Snapshot ~checkpoint_interval:0.
          ~poll_budget:11 ()
      in
      (match
         Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor
           ~checkpoint_path:path p ~buckets:opt_a_buckets
       with
      | _ -> Alcotest.fail "should interrupt"
      | exception Governor.Interrupted _ -> ());
      let resumed =
        Opt_a.build_exact ~key_cap:opt_a_key_cap ~resume_from:path p
          ~buckets:opt_a_buckets
      in
      check_same_result 11 base resumed)

let test_opt_a_resume_rejects_wrong_data () =
  let p = Prefix.create opt_a_data in
  with_tmp ".ckpt" (fun path ->
      let governor =
        Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:6 ()
      in
      (match
         Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor
           ~checkpoint_path:path p ~buckets:opt_a_buckets
       with
      | _ -> Alcotest.fail "should interrupt"
      | exception Governor.Interrupted _ -> ());
      let other = Prefix.create [| 2.; 3.; 5.; 11.; 12.; 13.; 2.; 8.; 4.; 6. |] in
      (match
         Opt_a.build_exact ~key_cap:opt_a_key_cap ~resume_from:path other
           ~buckets:opt_a_buckets
       with
      | _ -> Alcotest.fail "different data must be refused"
      | exception Error.Rs_error (Error.Corrupt_checkpoint _) -> ());
      match
        Opt_a.build_exact ~key_cap:(opt_a_key_cap + 1) ~resume_from:path p
          ~buckets:opt_a_buckets
      with
      | _ -> Alcotest.fail "different key_cap must be refused"
      | exception Error.Rs_error (Error.Corrupt_checkpoint _) -> ())

(* --- snapshot fuzzer: >= 300 mutants, never crash, never wrong --- *)

let mutate rng s =
  let len = String.length s in
  match Rng.int rng 3 with
  | 0 ->
      (* flip one bit *)
      let i = Rng.int rng len in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
      Bytes.to_string b
  | 1 ->
      (* truncate *)
      String.sub s 0 (Rng.int rng len)
  | _ ->
      (* duplicate a chunk onto the tail *)
      let at = Rng.int rng len in
      s ^ String.sub s at (Rng.int rng (len - at))

let test_snapshot_fuzzer () =
  let p = Prefix.create opt_a_data in
  let base = opt_a_base () in
  with_tmp ".ckpt" (fun path ->
      let governor =
        Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:9 ()
      in
      (match
         Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor
           ~checkpoint_path:path p ~buckets:opt_a_buckets
       with
      | _ -> Alcotest.fail "should interrupt"
      | exception Governor.Interrupted _ -> ());
      let pristine = read_file path in
      let rng = Rng.create 0xC0FFEE in
      let detected = ref 0 in
      for i = 1 to 350 do
        write_file path (mutate rng pristine);
        match
          Opt_a.build_exact ~key_cap:opt_a_key_cap ~resume_from:path p
            ~buckets:opt_a_buckets
        with
        | r ->
            (* A mutation the checks cannot distinguish from the real
               snapshot must still produce the right answer. *)
            check_same_result i base r
        | exception Error.Rs_error (Error.Corrupt_checkpoint _) -> incr detected
        | exception e ->
            Alcotest.failf "mutant %d: unexpected exception %s" i
              (Printexc.to_string e)
      done;
      if !detected < 300 then
        Alcotest.failf "only %d/350 mutants detected as corrupt" !detected)

(* A CRC-valid snapshot whose slot holds a NaN or infinite partial cost,
   or whose cell claims more slots than it holds, is corrupt: resume
   refuses it instead of seeding the DP with it. *)
let test_snapshot_refuses_non_finite () =
  let p = Prefix.create opt_a_data in
  with_tmp ".ckpt" (fun path ->
      let governor =
        Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:9 ()
      in
      (match
         Opt_a.build_exact ~key_cap:opt_a_key_cap ~governor
           ~checkpoint_path:path p ~buckets:opt_a_buckets
       with
      | _ -> Alcotest.fail "should interrupt"
      | exception Governor.Interrupted _ -> ());
      let kind = "opt-a-row-v1" in
      let body =
        match Checkpoint.load ~path ~kind with
        | Ok body -> body
        | Error e -> Alcotest.fail (Error.to_string e)
      in
      List.iter
        (fun bad ->
          let hit = ref false in
          let poisoned =
            String.concat "\n"
              (List.map
                 (fun line ->
                   match String.split_on_char ' ' line with
                   | [ "s"; slot; key; _; pj; pk ] when not !hit ->
                       hit := true;
                       String.concat " " [ "s"; slot; key; bad; pj; pk ]
                   | _ -> line)
                 (String.split_on_char '\n' body))
          in
          Alcotest.(check bool) "a slot line to poison" true !hit;
          Checkpoint.save ~path ~kind poisoned;
          match
            Opt_a.build_exact ~key_cap:opt_a_key_cap ~resume_from:path p
              ~buckets:opt_a_buckets
          with
          | _ -> Alcotest.failf "slot cost %s accepted" bad
          | exception Error.Rs_error (Error.Corrupt_checkpoint _) -> ())
        [ "nan"; "inf"; "-inf"; "infinity" ];
      (* a cell claiming 2^50 slots over the one line it has is refused
         as corruption, not by an allocation of that size *)
      let huge = 1 lsl 50 in
      let hit = ref false in
      let inflated =
        String.concat "\n"
          (List.map
             (fun line ->
               match String.split_on_char ' ' line with
               | [ "cell"; k; i; _; _ ] when not !hit ->
                   hit := true;
                   Printf.sprintf "cell %s %s %d %d" k i huge (huge - 1)
               | _ -> line)
             (String.split_on_char '\n' body))
      in
      Alcotest.(check bool) "a cell line to inflate" true !hit;
      Checkpoint.save ~path ~kind inflated;
      match
        Opt_a.build_exact ~key_cap:opt_a_key_cap ~resume_from:path p
          ~buckets:opt_a_buckets
      with
      | _ -> Alcotest.fail "inflated slot count accepted"
      | exception Error.Rs_error (Error.Corrupt_checkpoint _) -> ())

(* --- codec atomic save --- *)

let a_synopsis () =
  Builder.build (Dataset.of_floats dp_data) ~method_name:"sap0" ~budget_words:12

let test_codec_save_is_atomic () =
  with_tmp ".rs" (fun path ->
      let s = a_synopsis () in
      Codec.save s path;
      let original = read_file path in
      Faults.arm "atomic.torn";
      (match Codec.save (a_synopsis ()) path with
      | () -> Alcotest.fail "torn save must raise"
      | exception Faults.Injected _ -> ());
      Faults.reset ();
      Alcotest.(check string) "file untouched by torn save" original
        (read_file path);
      match Codec.load_result path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "still loadable: %s" (Error.to_string e))

let test_codec_save_result_reports_io () =
  let s = a_synopsis () in
  (match Codec.save_result s "/nonexistent-dir/x.rs" with
  | Error (Error.Io_failure { path; _ }) ->
      Alcotest.(check bool) "path mentioned" true
        (Helpers.contains path "nonexistent")
  | Ok () -> Alcotest.fail "unwritable path must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  Faults.arm "codec.save";
  (match Codec.save_result s "/tmp/never-written.rs" with
  | Error (Error.Io_failure _) -> ()
  | Ok () -> Alcotest.fail "armed codec.save must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  Faults.reset ()

(* --- store --- *)

let test_store_roundtrip () =
  with_tmp_dir (fun dir ->
      let store = Store.open_dir dir in
      let s = a_synopsis () in
      Store.put store ~name:"first" s;
      Alcotest.(check (list string)) "listed" [ "first" ] (Store.list store);
      (match Store.get store ~name:"first" with
      | Ok got ->
          Alcotest.(check string) "identical bytes" (Codec.to_string s)
            (Codec.to_string got)
      | Error e -> Alcotest.failf "get failed: %s" (Error.to_string e));
      (* Reopening reads the manifest, not leftover state. *)
      let reopened = Store.open_dir dir in
      Alcotest.(check (list string)) "survives reopen" [ "first" ]
        (Store.list reopened);
      Store.remove store ~name:"first";
      Alcotest.(check (list string)) "removed" [] (Store.list store))

let test_store_rejects_bad_names () =
  with_tmp_dir (fun dir ->
      let store = Store.open_dir dir in
      let s = a_synopsis () in
      List.iter
        (fun name ->
          match Store.put store ~name s with
          | () -> Alcotest.failf "name %S must be rejected" name
          | exception Error.Rs_error (Error.Invalid_input _) -> ())
        [ ""; "has/slash"; "../escape"; ".hidden"; "MANIFEST"; "sp ace" ])

let test_store_heals_corrupt_manifest () =
  with_tmp_dir (fun dir ->
      let store = Store.open_dir dir in
      Store.put store ~name:"keep" (a_synopsis ());
      write_file (Filename.concat dir "MANIFEST") "total garbage";
      let healed = Store.open_dir dir in
      Alcotest.(check (list string)) "rebuilt from entries" [ "keep" ]
        (Store.list healed);
      match Store.get healed ~name:"keep" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "entry lost: %s" (Error.to_string e))

let test_store_fsck_quarantines_and_adopts () =
  with_tmp_dir (fun dir ->
      let store = Store.open_dir dir in
      Store.put store ~name:"good" (a_synopsis ());
      Store.put store ~name:"bad" (a_synopsis ());
      (* Corrupt one entry behind the manifest's back, drop a stray tmp
         file, and sneak in a valid unmanifested entry. *)
      write_file (Filename.concat dir "bad.rs") "rotten bytes";
      write_file (Filename.concat dir "junk.rs.tmp") "half a write";
      write_file
        (Filename.concat dir "orphan.rs")
        (Codec.to_string (a_synopsis ()));
      let r = Store.fsck store in
      Alcotest.(check (list string)) "ok" [ "good"; "orphan" ] r.Store.ok;
      Alcotest.(check (list string)) "quarantined" [ "bad" ]
        (List.map fst r.Store.quarantined);
      Alcotest.(check (list string)) "tmp removed" [ "junk.rs.tmp" ]
        r.Store.removed_tmp;
      Alcotest.(check bool) "manifest rebuilt" true r.Store.manifest_rebuilt;
      Alcotest.(check bool) "quarantine holds the corpse" true
        (Sys.file_exists (Filename.concat dir "quarantine/bad.rs"));
      (* The healthy entries still serve. *)
      (match Store.get store ~name:"good" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "good entry lost: %s" (Error.to_string e));
      (* A clean store fscks clean. *)
      let r2 = Store.fsck store in
      Alcotest.(check (list string)) "second pass ok" [ "good"; "orphan" ]
        r2.Store.ok;
      Alcotest.(check bool) "second pass is clean" false
        r2.Store.manifest_rebuilt)

let test_store_put_fault_seams () =
  with_tmp_dir (fun dir ->
      let store = Store.open_dir dir in
      Store.put store ~name:"settled" (a_synopsis ());
      Faults.arm "store.put";
      (match Store.put store ~name:"doomed" (a_synopsis ()) with
      | () -> Alcotest.fail "armed store.put must raise"
      | exception Faults.Injected _ -> ());
      Faults.reset ();
      Alcotest.(check (list string)) "nothing half-added" [ "settled" ]
        (Store.list store);
      (* Manifest write dies after the entry file is durable: the entry
         is orphaned, and fsck adopts it. *)
      Faults.arm "store.manifest";
      (match Store.put store ~name:"orphan" (a_synopsis ()) with
      | () -> Alcotest.fail "armed store.manifest must raise"
      | exception Faults.Injected _ -> ());
      Faults.reset ();
      let reopened = Store.open_dir dir in
      let r = Store.fsck reopened in
      Alcotest.(check (list string)) "orphan adopted" [ "orphan"; "settled" ]
        r.Store.ok)

let test_store_get_detects_swapped_entry () =
  with_tmp_dir (fun dir ->
      let store = Store.open_dir dir in
      Store.put store ~name:"a" (a_synopsis ());
      let other =
        Builder.build (Dataset.of_floats dp_data) ~method_name:"equi-width"
          ~budget_words:12
      in
      (* A valid codec file, but not the one the manifest promised. *)
      write_file (Filename.concat dir "a.rs") (Codec.to_string other);
      match Store.get store ~name:"a" with
      | Error (Error.Corrupt_synopsis _) -> ()
      | Ok _ -> Alcotest.fail "swap must be detected by the manifest CRC"
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e))

(* --- store read-side concurrency (DESIGN.md §14) ---

   The serving daemon holds a store generation open while writers and
   repair passes run against the same directory.  The contract: decoded
   data is immune (it holds no file handles), stale handles get typed
   errors (never torn bytes, never a crash), and a fresh [open_dir]
   always heals. *)

module Generation = Rs_serve.Generation

let test_store_fsck_under_held_generation () =
  with_tmp_dir (fun dir ->
      let writer = Store.open_dir dir in
      Store.put writer ~name:"good" (a_synopsis ());
      Store.put writer ~name:"doomed" (a_synopsis ());
      (* The reader decodes the whole generation up front, then holds a
         second (soon stale) handle on the same directory. *)
      let gen = Error.get (Generation.load ~gen_id:1 dir) in
      let stale = Store.open_dir dir in
      Alcotest.(check int) "reader decoded both" 2 (Generation.size gen);
      (* Rot one entry and repair behind the reader's back. *)
      write_file (Filename.concat dir "doomed.rs") "rotten bytes";
      let r = Store.fsck writer in
      Alcotest.(check (list string))
        "quarantined" [ "doomed" ]
        (List.map fst r.Store.quarantined);
      (* The decoded generation is immune: fsck moved the file, not the
         reader's memory. *)
      Alcotest.(check int) "generation still serves both" 2 (Generation.size gen);
      (match Generation.find gen "doomed" with
      | Some e -> ignore (Synopsis.estimate e.Generation.syn ~a:1 ~b:1)
      | None -> Alcotest.fail "decoded entry vanished from the generation");
      (* A fresh read through the stale handle is a typed error — the
         file is gone — never an exception. *)
      (match Store.get stale ~name:"doomed" with
      | Error (Error.Io_failure _) -> ()
      | Ok _ -> Alcotest.fail "stale read of a quarantined entry must fail"
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
      (* Healthy entries keep serving through the stale handle. *)
      match Store.get stale ~name:"good" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "healthy entry lost: %s" (Error.to_string e))

let test_store_stale_handle_after_put () =
  with_tmp_dir (fun dir ->
      let writer = Store.open_dir dir in
      Store.put writer ~name:"a" (a_synopsis ());
      let reader = Store.open_dir dir in
      (* The writer atomically replaces the entry after the reader
         opened.  The reader's manifest snapshot pins the old CRC, so it
         cannot tell a newer version from corruption — the safe answer
         is the typed mismatch, never the torn in-between (there is no
         in-between: the rename is atomic). *)
      let replacement =
        Builder.build (Dataset.of_floats dp_data) ~method_name:"equi-width"
          ~budget_words:12
      in
      Store.put writer ~name:"a" replacement;
      (match Store.get reader ~name:"a" with
      | Error (Error.Corrupt_synopsis _) -> ()
      | Ok _ -> Alcotest.fail "stale CRC must detect the replaced entry"
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
      (* Re-opening — the daemon's reload — heals: the fresh generation
         sees exactly the writer's bytes. *)
      let fresh = Store.open_dir dir in
      match Store.get fresh ~name:"a" with
      | Ok got ->
          Alcotest.(check string) "fresh handle reads the writer's bytes"
            (Codec.to_string replacement) (Codec.to_string got)
      | Error e -> Alcotest.failf "fresh open must heal: %s" (Error.to_string e))

let test_store_open_races_atomic_rename () =
  with_tmp_dir (fun dir ->
      let writer = Store.open_dir dir in
      Store.put writer ~name:"a" (a_synopsis ());
      let replacement =
        Builder.build (Dataset.of_floats dp_data) ~method_name:"equi-width"
          ~budget_words:12
      in
      (* Freeze the put exactly between its two atomic steps: the entry
         rename landed, the manifest rewrite did not — the window a
         concurrent reader can open into. *)
      Faults.arm "store.manifest";
      (match Store.put writer ~name:"a" replacement with
      | () -> Alcotest.fail "armed store.manifest must raise"
      | exception Faults.Injected _ -> ());
      Faults.reset ();
      let reader = Store.open_dir dir in
      (* The reader sees the old manifest against the new bytes: a typed
         mismatch, not garbage. *)
      (match Store.get reader ~name:"a" with
      | Error (Error.Corrupt_synopsis _) -> ()
      | Ok _ -> Alcotest.fail "mid-window read must be a typed mismatch"
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
      (* fsck adopts the new bytes (they decode; the manifest was simply
         behind) and the entry serves again. *)
      let r = Store.fsck reader in
      Alcotest.(check bool) "manifest rebuilt" true r.Store.manifest_rebuilt;
      Alcotest.(check bool) "entry healthy" true (List.mem "a" r.Store.ok);
      match Store.get reader ~name:"a" with
      | Ok got ->
          Alcotest.(check string) "adopted the writer's bytes"
            (Codec.to_string replacement) (Codec.to_string got)
      | Error e -> Alcotest.failf "fsck must adopt: %s" (Error.to_string e))

(* --- builder / error taxonomy integration --- *)

let test_interrupted_error_shape () =
  let e = Error.Interrupted { stage = "opt-a"; checkpoint = "/tmp/c.ckpt" } in
  Alcotest.(check int) "exit code 5" 5 (Error.exit_code e);
  Alcotest.(check bool) "mentions resume" true
    (Helpers.contains (Error.to_string e) "resume");
  let e' = Error.Corrupt_checkpoint { path = "/tmp/c.ckpt"; reason = "r" } in
  Alcotest.(check int) "corrupt checkpoint exits 3" 3 (Error.exit_code e')

let test_builder_checkpoint_only_for_opt_a () =
  let ds = Dataset.of_floats dp_data in
  match
    Builder.build_result ~checkpoint_path:"/tmp/x.ckpt" ds ~method_name:"sap0"
      ~budget_words:12
  with
  | Error (Error.Invalid_input _) -> ()
  | Ok _ -> Alcotest.fail "sap0 must refuse checkpointing"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let test_builder_checkpointed_build_matches_plain () =
  with_tmp ".ckpt" (fun path ->
      let ds = Dataset.of_floats opt_a_data in
      let plain =
        Error.get (Builder.build_result ds ~method_name:"opt-a" ~budget_words:8)
      in
      let ckpt =
        Error.get
          (Builder.build_result ~checkpoint_path:path ~checkpoint_every:0. ds
             ~method_name:"opt-a" ~budget_words:8)
      in
      Helpers.check_close ~tol:1e-9 "same SSE either way"
        (Synopsis.sse ds plain.Builder.synopsis)
        (Synopsis.sse ds ckpt.Builder.synopsis);
      (* checkpoint_every:0 forces at least one periodic snapshot. *)
      Alcotest.(check bool) "snapshot written mid-run" true
        (Sys.file_exists path))

(* --- golden snapshot fixtures ---

   The opt-a-row-v1 snapshot byte format is contractual: resume is
   bit-identical, so refactors of the DP internals — Ktbl slot layout,
   transition kernels — must not move a single byte.  The test
   regenerates a snapshot with the exact recipe that produced the
   committed fixture (test/fixtures/opt-a-row-v1.golden, written by the
   pre-refactor code) and compares whole files.  If a
   change legitimately revs a format, it must bump the snapshot kind
   and regenerate the fixture — never silently rewrite it. *)

let golden_data = Array.init 24 (fun i -> float_of_int (((i * 7) mod 13) - 3))

let golden_fixture name = Filename.concat "fixtures" name

let check_golden name got =
  let want = read_file (golden_fixture name) in
  if String.equal want got then ()
  else begin
    let flen = String.length want and glen = String.length got in
    let lim = min flen glen in
    let d = ref 0 in
    while !d < lim && want.[!d] = got.[!d] do incr d done;
    Alcotest.failf
      "%s: snapshot bytes drifted from the committed fixture (fixture %d \
       bytes, regenerated %d bytes, first difference at offset %d)"
      name flen glen !d
  end

let test_golden_opt_a_row_snapshot () =
  let p = Prefix.create golden_data in
  with_tmp ".ckpt" (fun path ->
      (try
         ignore
           (Opt_a.build_exact
              ~governor:
                (Governor.create ~deadline_mode:Governor.Snapshot
                   ~poll_budget:20 ())
              ~key_cap:600 ~checkpoint_path:path p ~buckets:3);
         Alcotest.fail "golden opt-a run must be interrupted"
       with Governor.Interrupted _ -> ());
      check_golden "opt-a-row-v1.golden" (read_file path))

let () =
  Alcotest.run "checkpoint"
    [
      ("mclock", [ Alcotest.test_case "non-decreasing" `Quick test_mclock_non_decreasing ]);
      ( "governor",
        [
          Alcotest.test_case "poll budget" `Quick test_poll_budget_expires_exactly;
          Alcotest.test_case "snapshot mode" `Quick test_snapshot_mode_is_resumable;
          Alcotest.test_case "interval" `Quick test_checkpoint_interval_fires;
          Alcotest.test_case "unlimited" `Quick test_unlimited_never_expires;
          Alcotest.test_case "check raises" `Quick test_check_still_raises;
        ] );
      ( "container",
        [
          Alcotest.test_case "roundtrip" `Quick test_container_roundtrip;
          Alcotest.test_case "wrong kind" `Quick test_container_wrong_kind;
          Alcotest.test_case "missing file" `Quick test_container_missing_file;
          Alcotest.test_case "torn write" `Quick
            test_atomic_write_preserves_old_on_torn;
          Alcotest.test_case "rename failure" `Quick
            test_atomic_write_preserves_old_on_rename_failure;
          Alcotest.test_case "write seam" `Quick
            test_atomic_write_seam_fires_before_bytes;
        ] );
      ( "dp-governor",
        [
          Alcotest.test_case "poll per cell at every budget" `Quick
            test_dp_poll_per_cell;
          Alcotest.test_case "poll per tile-cell at n=600" `Quick
            test_dp_poll_per_tile_cell;
        ] );
      ( "golden",
        [
          Alcotest.test_case "opt-a-row-v1 bytes" `Quick
            test_golden_opt_a_row_snapshot;
        ] );
      ( "opt-a-resume",
        [
          Alcotest.test_case "kill at every row" `Quick
            test_opt_a_kill_and_resume_everywhere;
          Alcotest.test_case "interrupt twice" `Quick
            test_opt_a_double_interrupt_chain;
          Alcotest.test_case "periodic snapshots" `Quick
            test_opt_a_periodic_checkpoint_resume;
          Alcotest.test_case "identity checks" `Quick
            test_opt_a_resume_rejects_wrong_data;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "350 snapshot mutants" `Quick test_snapshot_fuzzer;
          Alcotest.test_case "non-finite slot cost" `Quick
            test_snapshot_refuses_non_finite;
        ] );
      ( "codec",
        [
          Alcotest.test_case "atomic save" `Quick test_codec_save_is_atomic;
          Alcotest.test_case "save_result" `Quick
            test_codec_save_result_reports_io;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "bad names" `Quick test_store_rejects_bad_names;
          Alcotest.test_case "heals manifest" `Quick
            test_store_heals_corrupt_manifest;
          Alcotest.test_case "fsck" `Quick test_store_fsck_quarantines_and_adopts;
          Alcotest.test_case "put fault seams" `Quick test_store_put_fault_seams;
          Alcotest.test_case "swapped entry" `Quick
            test_store_get_detects_swapped_entry;
          Alcotest.test_case "fsck under a held generation" `Quick
            test_store_fsck_under_held_generation;
          Alcotest.test_case "stale handle after put" `Quick
            test_store_stale_handle_after_put;
          Alcotest.test_case "open races the atomic rename" `Quick
            test_store_open_races_atomic_rename;
        ] );
      ( "builder",
        [
          Alcotest.test_case "error shape" `Quick test_interrupted_error_shape;
          Alcotest.test_case "opt-a only" `Quick
            test_builder_checkpoint_only_for_opt_a;
          Alcotest.test_case "checkpointed = plain" `Quick
            test_builder_checkpointed_build_matches_plain;
        ] );
    ]
