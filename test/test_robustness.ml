(* Robustness: the typed error boundary, fault injection, the governed
   degradation ladder, ingestion validation, and the checksummed codec
   under adversarial mutation.  Everything here exercises failure paths;
   the happy paths live in test_core. *)

module Error = Rs_util.Error
module Faults = Rs_util.Faults
module Governor = Rs_util.Governor
module Prefix = Rs_util.Prefix
module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module Codec = Rs_core.Codec
module Synopsis = Rs_core.Synopsis
module H = Rs_histogram.Histogram
module Dp = Rs_histogram.Dp
module Opt_a = Rs_histogram.Opt_a
module Wsap0 = Rs_histogram.Wsap0
module W = Rs_wavelet.Synopsis
module Rng = Rs_dist.Rng

let tmp_file suffix = Filename.temp_file "rs_robust" suffix

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* Run [f] with a file holding [content]; always removes the file. *)
let with_file content f =
  let path = tmp_file ".txt" in
  write_file path content;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* --- error taxonomy --- *)

let e_bad = Error.Bad_dataset { source = "s"; line = Some 3; reason = "r" }
let e_unknown = Error.Unknown_method { name = "m"; known = [ "a"; "b" ] }
let e_corrupt = Error.Corrupt_synopsis { line = 7; reason = "r" }

let e_budget =
  Error.Budget_exhausted { stage = "opt-a"; states_used = 10; limit = 5 }

let e_timeout =
  Error.Timeout
    { stage = "dp"; elapsed = 2.; deadline = 1.; reason = Governor.Wall_clock }
let e_io = Error.Io_failure { path = "/nope"; reason = "r" }
let e_invalid = Error.Invalid_input "bad"

let test_exit_codes () =
  let check name code e = Alcotest.(check int) name code (Error.exit_code e) in
  check "bad dataset" 2 e_bad;
  check "unknown method" 2 e_unknown;
  check "io failure" 2 e_io;
  check "invalid input" 2 e_invalid;
  check "corrupt synopsis" 3 e_corrupt;
  check "budget" 4 e_budget;
  check "timeout" 4 e_timeout

let test_to_string_mentions_location () =
  Alcotest.(check bool)
    "line number" true
    (Helpers.contains (Error.to_string e_bad) ":3");
  Alcotest.(check bool)
    "corrupt line" true
    (Helpers.contains (Error.to_string e_corrupt) "line 7");
  Alcotest.(check bool)
    "stage" true
    (Helpers.contains (Error.to_string e_budget) "opt-a")

let test_guard_conversions () =
  (match Error.guard (fun () -> 42) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "Ok passthrough");
  (match Error.guard (fun () -> Error.raise_error e_timeout) with
  | Error (Error.Timeout _) -> ()
  | _ -> Alcotest.fail "Rs_error payload");
  (match Error.guard (fun () -> invalid_arg "x") with
  | Error (Error.Invalid_input "x") -> ()
  | _ -> Alcotest.fail "Invalid_argument");
  (match Error.guard (fun () -> failwith "y") with
  | Error (Error.Invalid_input "y") -> ()
  | _ -> Alcotest.fail "Failure");
  (match Error.guard (fun () -> raise (Sys_error "z")) with
  | Error (Error.Io_failure _) -> ()
  | _ -> Alcotest.fail "Sys_error");
  match
    Error.guard (fun () ->
        Faults.with_faults [ "g.site" ] (fun () -> Faults.trip "g.site"))
  with
  | Error (Error.Invalid_input m) ->
      Alcotest.(check bool) "names site" true (Helpers.contains m "g.site")
  | _ -> Alcotest.fail "Injected"

let test_error_get () =
  Alcotest.(check int) "ok" 5 (Error.get (Ok 5));
  match Error.get (Error e_corrupt) with
  | exception Error.Rs_error (Error.Corrupt_synopsis _) -> ()
  | _ -> Alcotest.fail "expected Rs_error"

(* --- fault injection --- *)

let test_faults_basics () =
  Faults.reset ();
  Faults.trip "never.armed" (* no-op *);
  Alcotest.(check bool) "not armed" false (Faults.armed "x");
  Faults.arm ~reason:"boom" "x";
  Alcotest.(check bool) "armed" true (Faults.armed "x");
  (match Faults.trip "x" with
  | exception Faults.Injected { site = "x"; reason = "boom" } -> ()
  | _ -> Alcotest.fail "expected Injected");
  (* Unlimited arming keeps firing. *)
  (match Faults.trip "x" with
  | exception Faults.Injected _ -> ()
  | _ -> Alcotest.fail "still armed");
  Faults.disarm "x";
  Faults.trip "x";
  Faults.reset ()

let test_faults_count_limited () =
  Faults.reset ();
  Faults.arm ~count:2 "y";
  let fired = ref 0 in
  for _ = 1 to 4 do
    try Faults.trip "y" with Faults.Injected _ -> incr fired
  done;
  Alcotest.(check int) "fires exactly count times" 2 !fired;
  Alcotest.(check bool) "auto-disarmed" false (Faults.armed "y");
  Faults.reset ()

let test_with_faults_resets_on_exception () =
  Faults.reset ();
  (try
     Faults.with_faults [ "a"; "b" ] (fun () ->
         Alcotest.(check bool) "armed inside" true (Faults.armed "a");
         failwith "escape")
   with Failure _ -> ());
  Alcotest.(check bool) "a reset" false (Faults.armed "a");
  Alcotest.(check bool) "b reset" false (Faults.armed "b")

(* --- governor --- *)

let spin_until_expired g =
  while not (Governor.expired g) do
    ignore (Sys.opaque_identity (Governor.elapsed g))
  done

let test_governor_basics () =
  Governor.check Governor.unlimited ~stage:"anything";
  Alcotest.(check bool) "unlimited never expires" false
    (Governor.expired Governor.unlimited);
  (match Governor.create ~deadline:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero deadline accepted");
  (match Governor.create ~deadline:(-1.) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative deadline accepted");
  let g = Governor.create ~deadline:0.001 () in
  Alcotest.(check (option (float 1e-9))) "deadline stored" (Some 0.001)
    (Governor.deadline g);
  spin_until_expired g;
  match Governor.check g ~stage:"spin" with
  | exception Governor.Deadline_exceeded { stage = "spin"; elapsed; deadline; _ }
    ->
      Alcotest.(check bool) "elapsed past deadline" true (elapsed >= deadline)
  | () -> Alcotest.fail "expected Deadline_exceeded"

let test_dp_honours_governor () =
  let g = Governor.create ~deadline:0.001 () in
  spin_until_expired g;
  match
    Dp.solve ~governor:g ~stage:"dp-test" ~n:64 ~buckets:4
      ~cost:(fun ~l ~r -> float_of_int (r - l))
      ()
  with
  | exception Governor.Deadline_exceeded { stage = "dp-test"; _ } -> ()
  | _ -> Alcotest.fail "DP ignored an expired governor"

(* --- dataset ingestion --- *)

let bad_dataset_line = function
  | Error (Error.Bad_dataset { line; _ }) -> line
  | Ok _ -> Alcotest.fail "expected Bad_dataset, got Ok"
  | Error e -> Alcotest.failf "expected Bad_dataset, got %s" (Error.to_string e)

let test_load_crlf_and_trailing_blanks () =
  with_file "1\r\n2\r\n# c\r\n3\r\n\r\n\n" (fun path ->
      let ds = Error.get (Dataset.load_result path) in
      Alcotest.(check int) "n" 3 (Dataset.n ds);
      Helpers.check_close "total" 6. (Dataset.total ds))

let test_load_empty_file () =
  with_file "" (fun path ->
      match bad_dataset_line (Dataset.load_result path) with
      | None -> ()
      | Some _ -> Alcotest.fail "empty file should have no line number")

let test_load_comments_only () =
  with_file "# a\n\n# b\n" (fun path ->
      match bad_dataset_line (Dataset.load_result path) with
      | None -> ()
      | Some _ -> Alcotest.fail "value-free file should have no line number")

let test_load_reports_offending_line () =
  with_file "1\n# ok\nnot-a-number\n4\n" (fun path ->
      Alcotest.(check (option int))
        "1-based line" (Some 3)
        (bad_dataset_line (Dataset.load_result path)))

let test_load_missing_file () =
  match Dataset.load_result "/nonexistent/rs/dataset.txt" with
  | Error (Error.Io_failure _) -> ()
  | _ -> Alcotest.fail "expected Io_failure"

let test_load_fault_injection () =
  with_file "1\n2\n" (fun path ->
      Faults.with_faults [ "dataset.load" ] (fun () ->
          match Dataset.load_result path with
          | Error (Error.Io_failure _) -> ()
          | _ -> Alcotest.fail "expected typed error under injection"))

let test_validate_reject () =
  (match Dataset.validate ~policy:Dataset.Reject [| 1.; 2.; 3. |] with
  | Ok (_, 0) -> ()
  | _ -> Alcotest.fail "clean data should pass untouched");
  match Dataset.validate ~policy:Dataset.Reject [| 1.; Float.nan; -3. |] with
  | Error (Error.Bad_dataset { line = Some 2; _ }) -> ()
  | _ -> Alcotest.fail "expected first offender at position 2"

let test_validate_clamp () =
  let data = [| 1.; Float.nan; Float.infinity; -4.; Float.neg_infinity; 7. |] in
  match Dataset.validate ~policy:Dataset.Clamp data with
  | Ok (fixed, modified) ->
      Alcotest.(check int) "modified count" 4 modified;
      Helpers.check_close "nan -> 0" 0. fixed.(1);
      Helpers.check_close "+inf -> finite max" 7. fixed.(2);
      Helpers.check_close "negative -> 0" 0. fixed.(3);
      Helpers.check_close "-inf -> 0" 0. fixed.(4);
      Helpers.check_close "valid untouched" 1. fixed.(0)
  | Error e -> Alcotest.failf "clamp failed: %s" (Error.to_string e)

let test_validate_repair () =
  (match Dataset.validate ~policy:Dataset.Repair [| 2.; Float.nan; 6. |] with
  | Ok (fixed, 1) -> Helpers.check_close "neighbour mean" 4. fixed.(1)
  | _ -> Alcotest.fail "repair mid");
  (match Dataset.validate ~policy:Dataset.Repair [| Float.nan; 5.; 6. |] with
  | Ok (fixed, 1) -> Helpers.check_close "one-sided edge" 5. fixed.(0)
  | _ -> Alcotest.fail "repair edge");
  match
    Dataset.validate ~policy:Dataset.Repair [| Float.nan; Float.nan |]
  with
  | Ok (fixed, 2) ->
      Helpers.check_close "no valid neighbours -> 0" 0. fixed.(0);
      Helpers.check_close "no valid neighbours -> 0" 0. fixed.(1)
  | _ -> Alcotest.fail "repair all-bad"

let test_load_policy_applies () =
  with_file "1\nnan\n3\n" (fun path ->
      (match Dataset.load_result path with
      | Error (Error.Bad_dataset _) -> ()
      | _ -> Alcotest.fail "Reject should refuse nan");
      match Dataset.load_result ~policy:Dataset.Clamp path with
      | Ok ds -> Helpers.check_close "clamped total" 4. (Dataset.total ds)
      | Error e -> Alcotest.failf "Clamp failed: %s" (Error.to_string e))

(* --- codec round-trips, per representation --- *)

let all_estimates s =
  let n = Synopsis.domain_size s in
  let out = ref [] in
  for a = 1 to n do
    for b = a to n do
      out := Synopsis.estimate s ~a ~b :: !out
    done
  done;
  !out

(* A save/load round-trip must reproduce every estimate bit-for-bit
   (floats are serialized as %h). *)
let roundtrip_exact ?version s =
  let s' = Error.get (Codec.decode_result (Codec.to_string ?version s)) in
  List.for_all2 (fun a b -> Float.equal a b) (all_estimates s)
    (all_estimates s')

let buckets_for data = max 1 (min 4 (Array.length data / 2))

let synopsis_of_method method_name data =
  let ds = Dataset.of_floats data in
  Builder.build ds ~method_name ~budget_words:20

let qtest_roundtrip name build =
  Helpers.qtest ~count:60 ("roundtrip " ^ name) Helpers.small_data_arb
    (fun data -> roundtrip_exact (build data))

let roundtrip_tests =
  [
    qtest_roundtrip "avg" (fun data -> synopsis_of_method "equi-width" data);
    qtest_roundtrip "sap0" (fun data -> synopsis_of_method "sap0" data);
    qtest_roundtrip "sap1" (fun data -> synopsis_of_method "sap1" data);
    qtest_roundtrip "sap0-explicit" (fun data ->
        let p = Prefix.create data in
        let n = Array.length data in
        let w = Wsap0.recency_weights ~n ~half_life:(float_of_int n /. 2.) in
        Synopsis.Histogram (Wsap0.build p w ~buckets:(buckets_for data)));
    qtest_roundtrip "avg-rounded" (fun data ->
        match synopsis_of_method "equi-width" data with
        | Synopsis.Histogram h ->
            Synopsis.Histogram
              (H.make ~rounded:true ~name:(H.name h) (H.bucketing h) (H.repr h))
        | s -> s);
    qtest_roundtrip "wavelet-data" (fun data ->
        Synopsis.Wavelet (W.top_b_data data ~b:3));
    qtest_roundtrip "wavelet-prefix" (fun data ->
        Synopsis.Wavelet (W.range_optimal data ~b:3));
    qtest_roundtrip "wavelet-two-sided" (fun data ->
        Synopsis.Wavelet (W.aa_2d data ~b:4));
    Helpers.qtest ~count:60 "roundtrip v1 (legacy)" Helpers.small_data_arb
      (fun data -> roundtrip_exact ~version:1 (synopsis_of_method "sap0" data));
  ]

let base_synopsis =
  lazy (synopsis_of_method "sap0" [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |])

let test_codec_crlf_tolerated () =
  let s = Lazy.force base_synopsis in
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' (Codec.to_string s))
  in
  match Codec.decode_result crlf with
  | Ok s' ->
      Alcotest.(check bool) "estimates survive CRLF" true
        (List.for_all2 Float.equal (all_estimates s) (all_estimates s'))
  | Error e -> Alcotest.failf "CRLF rejected: %s" (Error.to_string e)

let expect_corrupt name = function
  | Error (Error.Corrupt_synopsis _) -> ()
  | Ok _ -> Alcotest.failf "%s: corruption went undetected" name
  | Error e ->
      Alcotest.failf "%s: wrong error class: %s" name (Error.to_string e)

let test_codec_detects_tampering () =
  let str = Codec.to_string (Lazy.force base_synopsis) in
  (* Flip one character inside the body: the CRC must catch it. *)
  let body_pos = String.length str - 3 in
  let flipped = Bytes.of_string str in
  Bytes.set flipped body_pos
    (Char.chr (Char.code (Bytes.get flipped body_pos) lxor 1));
  (match Codec.decode_result (Bytes.to_string flipped) with
  | Error (Error.Corrupt_synopsis { reason; _ }) ->
      Alcotest.(check bool) "names the CRC" true (Helpers.contains reason "CRC")
  | r -> expect_corrupt "bit flip" r);
  expect_corrupt "truncation"
    (Codec.decode_result (String.sub str 0 (String.length str - 5)));
  let lines = String.split_on_char '\n' str in
  let dup = List.concat_map (fun l -> [ l; l ]) lines in
  expect_corrupt "duplicated lines"
    (Codec.decode_result (String.concat "\n" dup))

let test_codec_bad_crc_line () =
  let str = Codec.to_string (Lazy.force base_synopsis) in
  let header, rest =
    match String.index_opt str '\n' with
    | Some i ->
        ( String.sub str 0 i,
          String.sub str (i + 1) (String.length str - i - 1) )
    | None -> Alcotest.fail "header"
  in
  let _, body =
    match String.index_opt rest '\n' with
    | Some i ->
        ( String.sub rest 0 i,
          String.sub rest (i + 1) (String.length rest - i - 1) )
    | None -> Alcotest.fail "crc line"
  in
  expect_corrupt "wrong crc"
    (Codec.decode_result (header ^ "\ncrc deadbeef\n" ^ body));
  expect_corrupt "malformed crc"
    (Codec.decode_result (header ^ "\ncrc zzzz\n" ^ body));
  expect_corrupt "missing crc"
    (Codec.decode_result (header ^ "\n" ^ body));
  expect_corrupt "future version"
    (Codec.decode_result ("range-synopsis 9\n" ^ body))

(* The fuzzer: random bit flips, truncations, line duplications and
   deletions over a valid v2 file.  Every mutant must either decode to
   bit-identical estimates or fail with a typed Corrupt_synopsis —
   never any other error, and never an exception. *)
let test_codec_corruption_fuzzer () =
  let s = Lazy.force base_synopsis in
  let reference = all_estimates s in
  let base = Codec.to_string s in
  let rng = Rng.create 0xBADC0DE in
  let mutate () =
    match Rng.int rng 4 with
    | 0 ->
        (* flip one random bit of one random byte *)
        let b = Bytes.of_string base in
        let i = Rng.int rng (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
        Bytes.to_string b
    | 1 -> String.sub base 0 (Rng.int rng (String.length base))
    | 2 ->
        let lines = String.split_on_char '\n' base in
        let k = Rng.int rng (List.length lines) in
        String.concat "\n"
          (List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) lines))
    | _ ->
        let lines = String.split_on_char '\n' base in
        let k = Rng.int rng (List.length lines) in
        String.concat "\n"
          (List.concat (List.mapi (fun i l -> if i = k then [] else [ l ]) lines))
  in
  let escaped = ref 0 and wrong_class = ref 0 and silent = ref 0 in
  for _ = 1 to 600 do
    let mutant = mutate () in
    match Codec.decode_result mutant with
    | Ok s' ->
        (* Only acceptable if the mutation was semantically a no-op. *)
        if
          not
            (List.length reference = List.length (all_estimates s')
            && List.for_all2 Float.equal reference (all_estimates s'))
        then incr silent
    | Error (Error.Corrupt_synopsis _) -> ()
    | Error _ -> incr wrong_class
    | exception _ -> incr escaped
  done;
  Alcotest.(check int) "uncaught exceptions" 0 !escaped;
  Alcotest.(check int) "wrong error class" 0 !wrong_class;
  Alcotest.(check int) "undetected corruption" 0 !silent

(* A CRC-valid file whose answering values hold a NaN or an infinity
   is still corrupt: the decode names the line, so fsck quarantines the
   entry instead of serving NaN estimates. *)
let reframe_v2 lines =
  let body = String.concat "\n" (List.filteri (fun i _ -> i >= 2) lines) in
  Printf.sprintf "range-synopsis 2\ncrc %s\n%s" (Rs_util.Crc32.digest body) body

(* Replace the first value on the line keyed [key] with [bad]. *)
let poison_line ~key ~bad str =
  let lines = String.split_on_char '\n' str in
  let hit = ref 0 in
  let lines =
    List.mapi
      (fun i l ->
        match String.split_on_char ' ' l with
        | k :: first :: rest when k = key && !hit = 0 ->
            hit := i + 1;
            let first =
              match String.index_opt first ':' with
              | Some c -> String.sub first 0 (c + 1) ^ bad
              | None -> bad
            in
            String.concat " " (k :: first :: rest)
        | _ -> l)
      lines
  in
  if !hit = 0 then Alcotest.failf "no %S line" key;
  (reframe_v2 lines, !hit)

let test_codec_refuses_non_finite () =
  let data = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  let cases =
    [
      (synopsis_of_method "equi-width" data, [ "values" ]);
      (synopsis_of_method "sap0" data, [ "suff"; "pref" ]);
      ( synopsis_of_method "sap1" data,
        [ "suff_slope"; "suff_icept"; "suff_rss"; "pref_slope"; "pref_icept"; "pref_rss" ] );
      (Synopsis.Wavelet (W.top_b_data data ~b:3), [ "coeffs" ]);
      (Synopsis.Wavelet (W.range_optimal data ~b:3), [ "coeffs" ]);
      (Synopsis.Wavelet (W.aa_2d data ~b:4), [ "coeffs"; "left" ]);
    ]
  in
  List.iter
    (fun (s, keys) ->
      let str = Codec.to_string s in
      (* the reframing itself is faithful *)
      (match Codec.decode_result (reframe_v2 (String.split_on_char '\n' str)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reframed original: %s" (Error.to_string e));
      List.iter
        (fun key ->
          List.iter
            (fun bad ->
              let mutant, line = poison_line ~key ~bad str in
              match Codec.decode_result mutant with
              | Error (Error.Corrupt_synopsis { line = l; reason }) ->
                  Alcotest.(check int) (key ^ " " ^ bad ^ " line") line l;
                  Alcotest.(check bool)
                    (key ^ " " ^ bad ^ " reason") true
                    (Helpers.contains reason "non-finite")
              | r -> expect_corrupt (key ^ " " ^ bad) r)
            [ "nan"; "inf"; "-inf"; "infinity"; "-nan" ])
        keys)
    cases

let test_codec_fault_seams () =
  let s = Lazy.force base_synopsis in
  Faults.with_faults [ "codec.decode" ] (fun () ->
      expect_corrupt "decode seam" (Codec.decode_result (Codec.to_string s)));
  let path = tmp_file ".rs" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Codec.save s path;
      Faults.with_faults [ "codec.load" ] (fun () ->
          match Codec.load_result path with
          | Error (Error.Io_failure _) -> ()
          | _ -> Alcotest.fail "load seam should be a typed Io_failure");
      Faults.with_faults [ "codec.save" ] (fun () ->
          match Codec.save s path with
          | exception Faults.Injected _ -> ()
          | () -> Alcotest.fail "save seam did not fire"))

(* --- the degradation ladder --- *)

let ladder_ds = lazy (Dataset.generate "zipf-64")

let rung_names staged = List.map (fun a -> a.Opt_a.rung) staged.Opt_a.attempts

let check_result_sse name (r : Opt_a.result) p =
  Helpers.check_close ~tol:1e-6 name r.Opt_a.sse
    (Rs_query.Error.sse_all_ranges p (Helpers.hist_estimator r.Opt_a.histogram))

let test_ladder_healthy_path () =
  Faults.reset ();
  let ds = Lazy.force ladder_ds in
  let staged = Opt_a.build_governed (Dataset.prefix ds) ~buckets:6 in
  Alcotest.(check string) "delivers the exact rung" "opt-a" staged.Opt_a.delivered;
  Alcotest.(check bool) "not degraded" false staged.Opt_a.degraded;
  check_result_sse "sse is brute-force exact" staged.Opt_a.result
    (Dataset.prefix ds)

let test_ladder_exact_rung_faulted () =
  let ds = Lazy.force ladder_ds in
  let staged =
    Faults.with_faults [ "opt_a.exact" ] (fun () ->
        Opt_a.build_governed (Dataset.prefix ds) ~buckets:6)
  in
  Alcotest.(check string) "falls to the first grid" "opt-a-rounded(x=8)"
    staged.Opt_a.delivered;
  Alcotest.(check bool) "flagged degraded" true staged.Opt_a.degraded;
  (match staged.Opt_a.attempts with
  | { Opt_a.rung = "opt-a"; outcome = Opt_a.Faulted reason; _ } :: _ ->
      Alcotest.(check bool) "reason names the seam" true
        (Helpers.contains reason "opt_a.exact")
  | _ -> Alcotest.fail "first attempt should record the injected fault");
  check_result_sse "degraded result still brute-force consistent"
    staged.Opt_a.result (Dataset.prefix ds)

let test_ladder_falls_to_a0 () =
  let ds = Lazy.force ladder_ds in
  let staged =
    Faults.with_faults [ "opt_a.exact"; "opt_a.rounded" ] (fun () ->
        Opt_a.build_governed (Dataset.prefix ds) ~buckets:6)
  in
  Alcotest.(check string) "floor rung" "a0" staged.Opt_a.delivered;
  Alcotest.(check (list string))
    "every rung recorded, in ladder order"
    [ "opt-a"; "opt-a-rounded(x=8)"; "opt-a-rounded(x=32)";
      "opt-a-rounded(x=128)"; "a0" ]
    (rung_names staged);
  List.iter
    (fun a ->
      match (a.Opt_a.rung, a.Opt_a.outcome) with
      | "a0", Opt_a.Completed _ -> ()
      | "a0", o ->
          Alcotest.failf "a0 should complete, got %s" (Opt_a.describe_outcome o)
      | _, Opt_a.Faulted _ -> ()
      | r, o ->
          Alcotest.failf "%s should record the fault, got %s" r
            (Opt_a.describe_outcome o))
    staged.Opt_a.attempts;
  check_result_sse "a0 sse brute-force consistent" staged.Opt_a.result
    (Dataset.prefix ds)

let test_ladder_total_failure () =
  let ds = Lazy.force ladder_ds in
  (match
     Faults.with_faults [ "opt_a.exact"; "opt_a.rounded"; "ladder.a0" ]
       (fun () -> Opt_a.build_governed (Dataset.prefix ds) ~buckets:6)
   with
  | exception Opt_a.All_rungs_failed attempts ->
      Alcotest.(check int) "all five rungs attempted" 5 (List.length attempts)
  | _ -> Alcotest.fail "expected All_rungs_failed");
  (* The same total failure must surface as a typed error, not an
     exception, at the builder boundary. *)
  Faults.with_faults [ "opt_a.exact"; "opt_a.rounded"; "ladder.a0" ] (fun () ->
      match Builder.build_result ds ~method_name:"opt-a" ~budget_words:12 with
      | Error e -> Alcotest.(check int) "exit code" 2 (Error.exit_code e)
      | Ok _ -> Alcotest.fail "builder should report the dead ladder")

let test_ladder_timeout_degrades_not_errors () =
  let ds = Lazy.force ladder_ds in
  let g = Governor.create ~deadline:0.001 () in
  spin_until_expired g;
  (* Expired governor: exact and rounded rungs all time out, yet the
     ungoverned A0 floor still delivers. *)
  let staged = Opt_a.build_governed ~governor:g (Dataset.prefix ds) ~buckets:6 in
  Alcotest.(check string) "floor delivers" "a0" staged.Opt_a.delivered;
  List.iter
    (fun a ->
      match (a.Opt_a.rung, a.Opt_a.outcome) with
      | "a0", Opt_a.Completed _ | _, Opt_a.Timed_out _ -> ()
      | r, o ->
          Alcotest.failf "%s should time out, got %s" r
            (Opt_a.describe_outcome o))
    staged.Opt_a.attempts

(* The acceptance scenario: a tiny state budget plus a 10 ms deadline on
   zipf-1024 must still produce a synopsis, via a lower rung, with every
   attempted rung named in the report. *)
let test_builder_degrades_under_pressure () =
  let ds = Dataset.generate "zipf-1024" in
  let options = { Builder.default_options with opt_a_max_states = 500 } in
  match
    Builder.build_result ~options ~deadline:0.01 ds ~method_name:"opt-a"
      ~budget_words:32
  with
  | Error e -> Alcotest.failf "should degrade, not fail: %s" (Error.to_string e)
  | Ok { Builder.report = None; _ } -> Alcotest.fail "opt-a must carry a report"
  | Ok { Builder.synopsis; report = Some r } ->
      Alcotest.(check string) "requested" "opt-a" r.Builder.requested;
      Alcotest.(check bool) "degraded" true (r.Builder.delivered <> "opt-a");
      Alcotest.(check (list string))
        "report names every rung"
        [ "opt-a"; "opt-a-rounded(x=8)"; "opt-a-rounded(x=32)";
          "opt-a-rounded(x=128)"; "a0" ]
        (List.map (fun a -> a.Opt_a.rung) r.Builder.attempts);
      Alcotest.(check bool) "synopsis is usable" true
        (Float.is_finite (Synopsis.estimate synopsis ~a:1 ~b:1024));
      Alcotest.(check bool) "report renders" true
        (List.length (Builder.report_lines r) >= 6)

let test_builder_single_rung_timeout () =
  let ds = Lazy.force ladder_ds in
  let g = Governor.create ~deadline:0.001 () in
  spin_until_expired g;
  let options = { Builder.default_options with governor = g } in
  match Builder.build_result ~options ds ~method_name:"sap0" ~budget_words:12 with
  | Error (Error.Timeout _ as e) ->
      Alcotest.(check int) "exit code 4" 4 (Error.exit_code e)
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "non-laddered method has no floor to fall to"

let test_builder_result_boundaries () =
  let ds = Lazy.force ladder_ds in
  (match Builder.build_result ds ~method_name:"sap0" ~budget_words:12 with
  | Ok { Builder.report = None; synopsis } ->
      Alcotest.(check string) "name" "sap0" (Synopsis.name synopsis)
  | Ok _ -> Alcotest.fail "single-rung methods carry no report"
  | Error e -> Alcotest.failf "sap0 failed: %s" (Error.to_string e));
  (match Builder.build_result ds ~method_name:"bogus" ~budget_words:12 with
  | Error (Error.Unknown_method { name = "bogus"; known }) ->
      Alcotest.(check bool) "known list populated" true (List.length known > 5)
  | _ -> Alcotest.fail "expected Unknown_method");
  let floats = Dataset.of_floats [| 1.5; 2.25; 0.75; 3.5 |] in
  match Builder.build_result floats ~method_name:"opt-a" ~budget_words:12 with
  | Error (Error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "opt-a on non-integral data should be Invalid_input"

let () =
  Alcotest.run "robustness"
    [
      ( "error",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "messages locate" `Quick
            test_to_string_mentions_location;
          Alcotest.test_case "guard conversions" `Quick test_guard_conversions;
          Alcotest.test_case "get" `Quick test_error_get;
        ] );
      ( "faults",
        [
          Alcotest.test_case "arm/trip/disarm" `Quick test_faults_basics;
          Alcotest.test_case "count-limited" `Quick test_faults_count_limited;
          Alcotest.test_case "with_faults resets" `Quick
            test_with_faults_resets_on_exception;
        ] );
      ( "governor",
        [
          Alcotest.test_case "basics" `Quick test_governor_basics;
          Alcotest.test_case "dp honours deadline" `Quick
            test_dp_honours_governor;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "crlf + trailing blanks" `Quick
            test_load_crlf_and_trailing_blanks;
          Alcotest.test_case "empty file" `Quick test_load_empty_file;
          Alcotest.test_case "comments only" `Quick test_load_comments_only;
          Alcotest.test_case "offending line" `Quick
            test_load_reports_offending_line;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          Alcotest.test_case "load fault seam" `Quick test_load_fault_injection;
          Alcotest.test_case "validate reject" `Quick test_validate_reject;
          Alcotest.test_case "validate clamp" `Quick test_validate_clamp;
          Alcotest.test_case "validate repair" `Quick test_validate_repair;
          Alcotest.test_case "load honours policy" `Quick
            test_load_policy_applies;
        ] );
      ( "codec",
        roundtrip_tests
        @ [
            Alcotest.test_case "crlf tolerated" `Quick test_codec_crlf_tolerated;
            Alcotest.test_case "detects tampering" `Quick
              test_codec_detects_tampering;
            Alcotest.test_case "crc line abuse" `Quick test_codec_bad_crc_line;
            Alcotest.test_case "corruption fuzzer" `Quick
              test_codec_corruption_fuzzer;
            Alcotest.test_case "fault seams" `Quick test_codec_fault_seams;
            Alcotest.test_case "refuses non-finite values" `Quick
              test_codec_refuses_non_finite;
          ] );
      ( "ladder",
        [
          Alcotest.test_case "healthy path" `Quick test_ladder_healthy_path;
          Alcotest.test_case "exact rung faulted" `Quick
            test_ladder_exact_rung_faulted;
          Alcotest.test_case "falls to a0" `Quick test_ladder_falls_to_a0;
          Alcotest.test_case "total failure" `Quick test_ladder_total_failure;
          Alcotest.test_case "timeout degrades" `Quick
            test_ladder_timeout_degrades_not_errors;
          Alcotest.test_case "acceptance: budget+deadline" `Quick
            test_builder_degrades_under_pressure;
          Alcotest.test_case "single-rung timeout" `Quick
            test_builder_single_rung_timeout;
          Alcotest.test_case "builder boundaries" `Quick
            test_builder_result_boundaries;
        ] );
    ]
